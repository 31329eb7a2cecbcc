package gcn

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/suites"
)

// resultBitsEqual compares two Results field by field at the bit
// level: the batch path's contract is byte-identity with the scalar
// path, not approximate agreement.
func resultBitsEqual(a, b Result) bool {
	return math.Float64bits(a.TimeNS) == math.Float64bits(b.TimeNS) &&
		math.Float64bits(a.KernelNS) == math.Float64bits(b.KernelNS) &&
		math.Float64bits(a.Throughput) == math.Float64bits(b.Throughput) &&
		math.Float64bits(a.AchievedGFLOPS) == math.Float64bits(b.AchievedGFLOPS) &&
		math.Float64bits(a.AchievedGBs) == math.Float64bits(b.AchievedGBs) &&
		math.Float64bits(a.HitRates.L1) == math.Float64bits(b.HitRates.L1) &&
		math.Float64bits(a.HitRates.L2) == math.Float64bits(b.HitRates.L2) &&
		a.OccupancyWaves == b.OccupancyWaves &&
		a.Bound == b.Bound &&
		math.Float64bits(a.BoundShare) == math.Float64bits(b.BoundShare)
}

// assertBatchMatchesScalar runs EvalRoundBatch against fresh per-cell
// EvalRound calls (separate Prepared instances, so neither path warms
// the other's memos) and requires bit equality at every position.
func assertBatchMatchesScalar(t *testing.T, k *kernel.Kernel, cfgs []hw.Config) {
	t.Helper()
	pb, err := Prepare(k)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", k.Name, err)
	}
	ps, err := Prepare(k)
	if err != nil {
		t.Fatalf("Prepare(%s): %v", k.Name, err)
	}
	out := make([]Result, len(cfgs))
	if err := pb.EvalRoundBatch(cfgs, out); err != nil {
		t.Fatalf("EvalRoundBatch(%s): %v", k.Name, err)
	}
	for i, cfg := range cfgs {
		want, err := ps.EvalRound(cfg)
		if err != nil {
			t.Fatalf("EvalRound(%s, %+v): %v", k.Name, cfg, err)
		}
		if !resultBitsEqual(out[i], want) {
			t.Fatalf("%s cell %d (%+v): batch %+v != scalar %+v", k.Name, i, cfg, out[i], want)
		}
	}
}

func TestEvalRoundBatchMatchesScalarOnCorpus(t *testing.T) {
	cfgs := hw.StudySpace().Configs()
	for _, k := range suites.AllKernels(suites.Corpus()) {
		assertBatchMatchesScalar(t, k, cfgs)
	}
}

// randomBatchKernel builds a random-but-valid kernel covering barrier,
// LDS, divergence, dependence and locality parameters the archetype
// kernels do not reach.
func randomBatchKernel(r *rand.Rand) *kernel.Kernel {
	b := kernel.New("t", "t", "rand").
		Geometry(1+r.Intn(6000), 64*(1+r.Intn(4))).
		Compute(1+r.Intn(40000), r.Intn(2000)).
		LDSOps(r.Intn(500), r.Intn(8)).
		Access(kernel.AccessPattern(r.Intn(5)), r.Intn(512), r.Intn(128), 1<<uint(r.Intn(4))).
		Locality(int64(r.Intn(1<<21)), r.Float64(), 4*r.Float64()).
		Coalescing(r.Float64()).
		MLP(1 + 15*r.Float64()).
		DepChain(r.Float64()).
		Divergence(0.05 + 0.95*r.Float64()).
		Launch(float64(r.Intn(20000)), 1)
	if r.Intn(2) == 0 {
		b = b.Resources(16+r.Intn(112), 16+r.Intn(80), r.Intn(48*1024))
	}
	k, err := b.Build()
	if err != nil {
		return nil
	}
	return k
}

// randomConfigs draws valid configurations with no grid structure at
// all: consecutive cells change every axis at once, which forces the
// batch evaluator through its block- and sub-block re-derivation on
// nearly every cell. A quarter of the cells carry an L2 override.
func randomConfigs(r *rand.Rand, n int) []hw.Config {
	cfgs := make([]hw.Config, n)
	for i := range cfgs {
		cfgs[i] = hw.Config{
			CUs:          1 + r.Intn(hw.MaxCUs),
			CoreClockMHz: float64(100 + r.Intn(1101)),
			MemClockMHz:  float64(100 + r.Intn(1401)),
		}
		if r.Intn(4) == 0 {
			cfgs[i].L2Override = 64 * 1024 * (1 + r.Intn(64))
		}
	}
	return cfgs
}

func TestEvalRoundBatchMatchesScalarOnRandomKernelsAndGrids(t *testing.T) {
	r := rand.New(rand.NewSource(909))
	grid := hw.StudySpace().Configs()
	built := 0
	for built < 40 {
		k := randomBatchKernel(r)
		if k == nil {
			continue
		}
		if _, err := Prepare(k); err != nil {
			continue // does not fit: no row to compare
		}
		built++
		assertBatchMatchesScalar(t, k, grid)
		assertBatchMatchesScalar(t, k, randomConfigs(r, 200))
	}
}

func TestEvalRoundBatchBufferContract(t *testing.T) {
	p, err := Prepare(computeBoundKernel())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []hw.Config{hw.Reference(), hw.Minimum()}
	if err := p.EvalRoundBatch(cfgs, make([]Result, 1)); err == nil {
		t.Fatal("undersized out accepted")
	}
	if err := p.EvalRoundBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestEvalBatchSeamMatchesEvalAllEngines proves the generic BatchRow
// seam (per-cell loop with panic isolation) agrees bit for bit with
// the per-cell Simulate* entry points on every engine, not just the
// round engine's columnar path.
func TestEvalBatchSeamMatchesEvalAllEngines(t *testing.T) {
	engines := map[string]struct {
		row RowEngine
		sim EngineFunc
	}{
		"round":    {RoundRow, Simulate},
		"wave":     {WaveRow, SimulateWave},
		"pipeline": {PipelineRow, SimulatePipeline},
		"detailed": {DetailedRow, SimulateDetailed},
	}
	kernels := []*kernel.Kernel{
		smaller(computeBoundKernel(), 256),
		smaller(bandwidthBoundKernel(), 256),
		parallelismLimitedKernel(),
		launchBoundKernel(),
	}
	cfgs := []hw.Config{
		hw.Reference(),
		hw.Minimum(),
		{CUs: 17, CoreClockMHz: 727, MemClockMHz: 475},
	}
	for name, e := range engines {
		for _, k := range kernels {
			row, err := e.row.PrepareRow(k)
			if err != nil {
				t.Fatalf("%s PrepareRow(%s): %v", name, k.Name, err)
			}
			out := make([]Result, len(cfgs))
			errs := make([]error, len(cfgs))
			if err := row.EvalBatch(cfgs, out, errs); err != nil {
				t.Fatalf("%s EvalBatch(%s): %v", name, k.Name, err)
			}
			for i, cfg := range cfgs {
				want, werr := e.sim(k, cfg)
				if (werr == nil) != (errs[i] == nil) {
					t.Fatalf("%s %s cell %d: batch err %v, scalar err %v", name, k.Name, i, errs[i], werr)
				}
				if werr != nil {
					continue
				}
				if !resultBitsEqual(out[i], want) {
					t.Fatalf("%s %s cell %d: batch %+v != scalar %+v", name, k.Name, i, out[i], want)
				}
			}
		}
	}
}

// TestEvalBatchIsolatesPerCellPanics: a panicking cell inside the
// generic batch loop must poison only its own slot.
func TestEvalBatchIsolatesPerCellPanics(t *testing.T) {
	k := smaller(computeBoundKernel(), 128)
	p, err := Prepare(k)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	row := preparedRow{p: p, eval: func(p *Prepared, cfg hw.Config) (Result, error) {
		calls++
		if calls == 2 {
			panic("boom at cell 2")
		}
		return p.EvalRound(cfg)
	}}
	cfgs := []hw.Config{hw.Reference(), hw.Minimum(), hw.Reference()}
	out := make([]Result, len(cfgs))
	errs := []error{nil, errors.New("stale"), nil}
	if err := row.EvalBatch(cfgs, out, errs); err != nil {
		t.Fatalf("EvalBatch: %v", err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy cells got errors: %v, %v", errs[0], errs[2])
	}
	if errs[1] == nil || !errors.Is(errs[1], ErrBatchPanic) {
		t.Fatalf("panicked cell error = %v, want ErrBatchPanic", errs[1])
	}
	if !strings.Contains(errs[1].Error(), "boom at cell 2") {
		t.Fatalf("panic message lost: %v", errs[1])
	}
	if out[2].TimeNS <= 0 {
		t.Fatal("cell after the panic was not evaluated")
	}
}

// FuzzEvalRoundBatchEquivalence fuzzes kernel geometry, memory
// behaviour and a two-config mini-axis, asserting the batch evaluator
// tracks the scalar path bit for bit.
func FuzzEvalRoundBatchEquivalence(f *testing.F) {
	f.Add(int64(1), 1024, 256, 2000, 80, uint8(0), 44, 1000.0, 1250.0, 4, 300.0, 500.0)
	f.Add(int64(7), 3, 64, 1, 0, uint8(4), 1, 100.0, 100.0, 44, 1200.0, 1500.0)
	f.Add(int64(9), 891, 128, 500, 300, uint8(2), 20, 727.0, 925.0, 21, 727.0, 475.0)
	f.Fuzz(func(t *testing.T, seed int64, wgs, wgSize, valu, loads int, pat uint8,
		cus1 int, core1, mem1 float64, cus2 int, core2, mem2 float64) {
		r := rand.New(rand.NewSource(seed))
		k, err := kernel.New("t", "t", "fuzz").
			Geometry(wgs, wgSize).
			Compute(valu, r.Intn(500)).
			Access(kernel.AccessPattern(pat%5), loads, r.Intn(64), 4).
			Locality(int64(r.Intn(1<<20)), r.Float64(), 2*r.Float64()).
			MLP(1 + 7*r.Float64()).
			Build()
		if err != nil {
			t.Skip()
		}
		cfgs := []hw.Config{
			{CUs: cus1, CoreClockMHz: core1, MemClockMHz: mem1},
			{CUs: cus2, CoreClockMHz: core2, MemClockMHz: mem2},
		}
		for _, cfg := range cfgs {
			if cfg.Validate() != nil {
				t.Skip()
			}
		}
		if _, err := Prepare(k); err != nil {
			t.Skip()
		}
		assertBatchMatchesScalar(t, k, cfgs)
	})
}
