package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"gpuscale/internal/core"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/suites"
	"gpuscale/internal/sweep"
)

// noiseSigma is the measurement-noise standard deviation every study
// asks for; the seed argument sets the noise seed.
const noiseSigma = 0.02

// pipelineArchetypes are the eight archetypes whose first corpus
// kernel makes up the pipeline study, heaviest pipeline row first
// (from about 0.9 s down to about 0.01 s per row on one core of a
// 2-vCPU host).
//
// The set and its order are fixed; the seed sets only the noise. With
// two workers the study time is the longer worker's share of rows of
// very unequal cost, so drawing the kernels by seed, or permuting
// them, moves the study time by 18 to 40 percent from seed to seed
// (simulated from measured per-row costs), far more than any
// regression bound. Heaviest first keeps the two shares balanced.
var pipelineArchetypes = []suites.Archetype{
	suites.Balanced, suites.Stencil, suites.DenseCompute, suites.LDSHeavy,
	suites.CacheSensitive, suites.Reduction, suites.StreamBW, suites.GraphGather,
}

// shape is how a workload deploys the system under test.
type shape int

const (
	library shape = iota // in the benchmark process
	node                 // one gpuscaled
	fleetHA              // primary, standby and two workers
)

// workload is one named benchmark input set.
type workload struct {
	name   string
	shape  shape
	engine sweep.Engine
	// duration is the timed window when -seconds is not given.
	duration time.Duration
}

var workloads = []workload{
	{"round-library", library, sweep.Round, 15 * time.Second},
	{"round-node", node, sweep.Round, 40 * time.Second},
	{"round-fleet-ha", fleetHA, sweep.Round, 60 * time.Second},
	{"pipeline-fleet-ha", fleetHA, sweep.Pipeline, 60 * time.Second},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// study is one seed's input: the kernels in submission order. The
// benchmark rebuilds it at the start of every study, since building
// the corpus is the first thing a researcher's client does.
type study struct {
	kernels []*kernel.Kernel
	names   []string
	// body is the kernel list in kernel.WriteAll form, the inline
	// payload of an HTTP job; empty for the library workload.
	body []byte
}

// buildStudy builds the study for a seed from the corpus. Round
// workloads take the whole corpus (or its first prefix kernels) in a
// seed-permuted order; the pipeline workload takes the first kernel of
// each of pipelineArchetypes.
func buildStudy(w workload, seed int64, prefix int, encode bool) (*study, error) {
	entries := suites.AllEntries(suites.Corpus())
	if prefix > 0 && prefix < len(entries) {
		entries = entries[:prefix]
	}
	var ks []*kernel.Kernel
	if w.engine == sweep.Pipeline {
		for _, a := range pipelineArchetypes {
			for _, e := range entries {
				if e.Archetype == a {
					ks = append(ks, e.Kernel)
					break
				}
			}
		}
	} else {
		ks = make([]*kernel.Kernel, len(entries))
		for i, j := range rand.New(rand.NewSource(seed)).Perm(len(entries)) {
			ks[i] = entries[j].Kernel
		}
	}
	s := &study{kernels: ks, names: make([]string, len(ks))}
	for i, k := range ks {
		s.names[i] = k.Name
	}
	if encode {
		var buf bytes.Buffer
		if err := kernel.WriteAll(&buf, ks); err != nil {
			return nil, fmt.Errorf("encoding kernels: %w", err)
		}
		s.body = buf.Bytes()
	}
	return s, nil
}

// sweepOptions is the in-process equivalent of the job every HTTP
// workload submits.
func sweepOptions(w workload, seed int64) sweep.Options {
	return sweep.Options{Engine: w.engine, NoiseStdDev: noiseSigma, Seed: seed}
}

// reference is the correctness oracle for one seed: the matrix an
// in-process sweep of the same kernels, engine, noise and seed
// produces, its digest, and the category it gives each kernel.
type reference struct {
	names      []string
	matrix     *sweep.Matrix
	digest     [sha256.Size]byte
	categories []core.Category
}

func newReference(ctx context.Context, w workload, seed int64, s *study) (*reference, error) {
	m, rep, err := sweep.RunContext(ctx, s.kernels, hw.StudySpace(), sweepOptions(w, seed))
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	if !rep.Complete() {
		return nil, fmt.Errorf("reference sweep incomplete: %s", rep.Summary())
	}
	b, err := sweep.CanonicalJournalBytes(m, s.names)
	if err != nil {
		return nil, fmt.Errorf("canonical reference matrix: %w", err)
	}
	ref := &reference{names: s.names, matrix: m, digest: sha256.Sum256(b)}
	for _, c := range classify(m) {
		ref.categories = append(ref.categories, c.Category)
	}
	return ref, nil
}

// classify is the taxonomy step of a study.
func classify(m *sweep.Matrix) []core.Classification {
	return core.DefaultClassifier().ClassifyAll(core.Surfaces(m))
}

// verify checks one study's matrix and taxonomy against the reference.
//
// The matrix must hash to the reference digest. Its canonical journal
// bytes encode exactly each row's kernel name and throughput, time and
// bound planes, with shortest round-trip floats, as the CSV export
// does. So comparing those planes for exact equality, with every row
// complete, decides the same question as hashing; it costs under a
// millisecond, where encoding the matrix costs more than a study on the
// round engine.
func (r *reference) verify(m *sweep.Matrix, cls []core.Classification) error {
	if len(m.Kernels) != len(r.names) {
		return fmt.Errorf("matrix has %d rows, the reference %d", len(m.Kernels), len(r.names))
	}
	for i, name := range r.names {
		row := m.Row(name)
		if row < 0 || !m.RowComplete(row) {
			return fmt.Errorf("kernel %s missing or incomplete", name)
		}
		if !equalRow(m, row, r.matrix, i) {
			return fmt.Errorf("kernel %s: matrix row differs from the reference", name)
		}
	}
	if len(cls) != len(m.Kernels) {
		return fmt.Errorf("%d classifications for %d kernels", len(cls), len(m.Kernels))
	}
	want := make(map[string]core.Category, len(r.names))
	for i, n := range r.names {
		want[n] = r.categories[i]
	}
	for _, c := range cls {
		if w, ok := want[c.Kernel]; !ok || c.Category != w {
			return fmt.Errorf("kernel %s classified %v, reference says %v", c.Kernel, c.Category, w)
		}
	}
	return nil
}

func equalRow(a *sweep.Matrix, ra int, b *sweep.Matrix, rb int) bool {
	n := len(b.Throughput[rb])
	if len(a.Throughput[ra]) != n || len(a.TimeNS[ra]) != n || len(a.Bound[ra]) != n {
		return false
	}
	for c := 0; c < n; c++ {
		if a.Throughput[ra][c] != b.Throughput[rb][c] || a.TimeNS[ra][c] != b.TimeNS[rb][c] ||
			a.Bound[ra][c] != b.Bound[rb][c] {
			return false
		}
	}
	return true
}
