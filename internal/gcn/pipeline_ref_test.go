package gcn

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"gpuscale/internal/isa"
	"gpuscale/internal/kernel"
	"gpuscale/internal/suites"
)

// The resident-set scheduler picks waves from eligibility bitsets and
// fast-forwards stretches of pure port rotation, which must not change
// issue order. referenceResidentSet is the original straightforward
// implementation — Body lookups and predicate calls every cycle, one
// loop iteration per cycle — kept verbatim as a differential oracle:
// both must agree on the exact cycle count for every program, latency,
// and policy.

func refIsVector(op isa.Op) bool { return op == isa.OpVALU || op == isa.OpLDS }
func refIsMemory(op isa.Op) bool { return op == isa.OpLoad || op == isa.OpStore }
func refIsScalar(op isa.Op) bool { return op == isa.OpSALU }

type refWave struct {
	wg        int
	instr     int
	remaining int
	loads     int
	atBarrier bool
	done      bool
}

type loadCompletion struct {
	cycle int64
	wave  int
}

type refPipeline struct {
	prog       *isa.Program
	waves      []refWave
	wavesPerWG int
	loadDone   []loadCompletion
	loadHead   int
	arrived    []int
	policy     SchedPolicy
	cycle      int64
}

func (p *refPipeline) pickReady(rr *int, port func(isa.Op) bool) int {
	n := len(p.waves)
	start := *rr
	if p.policy == GreedyThenOldest {
		start = 0
	}
	for i := 0; i < n; i++ {
		w := (start + i) % n
		wv := &p.waves[w]
		if wv.done || wv.atBarrier {
			continue
		}
		in := p.prog.Body[wv.instr]
		if !port(in.Op) {
			continue
		}
		if in.DependsOnLoad && wv.loads > 0 {
			continue
		}
		if p.policy == RoundRobin {
			*rr = (w + 1) % n
		}
		return w
	}
	return -1
}

func (p *refPipeline) step(w int) {
	wv := &p.waves[w]
	wv.remaining--
	if wv.remaining == 0 {
		wv.instr++
		if wv.instr < len(p.prog.Body) {
			wv.remaining = p.prog.Body[wv.instr].Count
		}
	}
}

func (p *refPipeline) releaseBarrier(wg int) {
	p.arrived[wg] = 0
	for w := range p.waves {
		wv := &p.waves[w]
		if wv.wg == wg && wv.atBarrier {
			wv.atBarrier = false
			p.step(w)
		}
	}
}

func referenceResidentSet(prog *isa.Program, wgs, wavesPerWG int, latencyCycles int64, policy SchedPolicy) (int64, error) {
	p := &refPipeline{prog: prog, wavesPerWG: wavesPerWG, policy: policy, arrived: make([]int, wgs)}
	for wg := 0; wg < wgs; wg++ {
		for i := 0; i < wavesPerWG; i++ {
			p.waves = append(p.waves, refWave{wg: wg, remaining: prog.Body[0].Count})
		}
	}
	live := len(p.waves)
	rrVec, rrMem, rrScalar := 0, 0, 0
	for live > 0 {
		for p.loadHead < len(p.loadDone) && p.loadDone[p.loadHead].cycle <= p.cycle {
			p.waves[p.loadDone[p.loadHead].wave].loads--
			p.loadHead++
		}
		issued := false
		if w := p.pickReady(&rrVec, refIsVector); w >= 0 {
			p.step(w)
			issued = true
		}
		if w := p.pickReady(&rrMem, refIsMemory); w >= 0 {
			wv := &p.waves[w]
			if p.prog.Body[wv.instr].Op == isa.OpLoad {
				wv.loads++
				p.loadDone = append(p.loadDone, loadCompletion{cycle: p.cycle + latencyCycles, wave: w})
			}
			p.step(w)
			issued = true
		}
		if w := p.pickReady(&rrScalar, refIsScalar); w >= 0 {
			p.step(w)
			issued = true
		}
		for w := range p.waves {
			wv := &p.waves[w]
			if wv.done || wv.atBarrier {
				continue
			}
			switch p.prog.Body[wv.instr].Op {
			case isa.OpBarrier:
				wv.atBarrier = true
				p.arrived[wv.wg]++
				if p.arrived[wv.wg] == p.wavesPerWG {
					p.releaseBarrier(wv.wg)
				}
				issued = true
			case isa.OpEnd:
				if wv.loads == 0 {
					wv.done = true
					live--
					issued = true
				}
			}
		}
		if issued {
			p.cycle++
			continue
		}
		if p.loadHead < len(p.loadDone) {
			p.cycle = p.loadDone[p.loadHead].cycle
			continue
		}
		break
	}
	return p.cycle, nil
}

func TestResidentSetMatchesReference(t *testing.T) {
	kernels := []*kernel.Kernel{
		capVALU(capWGs(computeBoundKernel(), 8), 300),
		capWGs(bandwidthBoundKernel(), 8),
		capWGs(latencyBoundKernel(), 8),
		capVALU(capWGs(cuIntolerantKernel(), 8), 300),
		kernel.New("s", "p", "lds").Geometry(8, 256).LDSOps(64, 4).MustBuild(),
	}
	for _, k := range kernels {
		prog, err := isa.Lower(k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for _, policy := range []SchedPolicy{RoundRobin, GreedyThenOldest} {
			for _, latency := range []int64{1, 7, 63, 400} {
				for _, wgs := range []int{1, 3, 8} {
					matchReference(t, &cuPipeline{}, prog, wgs, 4, latency, policy)
				}
			}
		}
	}

	// The pipeline study's kernels at a full 40-wave resident set: the
	// fast-forward must carry part of every run, with the memory port
	// rotating in some of it and waves crossing instruction ends inside
	// it, so the oracle cannot pass by never taking any of these. A step
	// is spent only where a wave's eligibility changes, which bounds
	// every kernel's steps at round-robin, latency 400, about a tenth
	// over its count (cycle by cycle balanced takes 265,705 cycles).
	// The -v log tabulates the counts.
	maxSteps := map[suites.Archetype]int64{
		suites.Balanced: 4650, suites.Stencil: 4150, suites.DenseCompute: 3350, suites.LDSHeavy: 2900,
		suites.CacheSensitive: 7850, suites.Reduction: 3150, suites.StreamBW: 5900, suites.GraphGather: 3750,
	}
	t.Logf("%-32s %-11s %7s %6s %8s %10s %7s", "kernel", "policy", "latency", "steps", "skipped", "memSkipped", "crossed")
	for i, k := range studyKernels(t) {
		prog, err := isa.Lower(k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		wavesPerWG := k.WavesPerWG()
		for _, run := range []struct {
			policy  SchedPolicy
			latency int64
		}{{RoundRobin, 400}, {GreedyThenOldest, 63}} {
			p := &cuPipeline{}
			matchReference(t, p, prog, 40/wavesPerWG, wavesPerWG, run.latency, run.policy)
			t.Logf("%-32s %-11v %7d %6d %8d %10d %7d", k.Name, run.policy, run.latency, p.steps, p.skipped, p.memSkipped, p.crossed)
			if p.skipped == 0 || p.memSkipped == 0 || p.crossed == 0 {
				t.Errorf("%s policy=%v latency=%d: %d cycles fast-forwarded, %d of them with the memory port rotating, %d instruction ends crossed",
					k.Name, run.policy, run.latency, p.skipped, p.memSkipped, p.crossed)
			}
			if limit := maxSteps[studyArchetypes[i]]; run.policy == RoundRobin && p.steps > limit {
				t.Errorf("%s policy=%v latency=%d: %d steps, want at most %d", k.Name, run.policy, run.latency, p.steps, limit)
			}
		}
	}
}

// matchReference runs one resident set on p and on the reference,
// fails the test unless both take the same number of cycles, and
// returns the line the run certified.
func matchReference(t *testing.T, p *cuPipeline, prog *isa.Program, wgs, wavesPerWG int, latency int64, policy SchedPolicy) rsLine {
	t.Helper()
	want, err := referenceResidentSet(prog, wgs, wavesPerWG, latency, policy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runResidentSet(p, nil, prog, wgs, wavesPerWG, latency, policy)
	if err != nil {
		t.Fatal(err)
	}
	if got.cycles != want {
		t.Errorf("%s policy=%v latency=%d wgs=%d x %d waves: optimized %d cycles, reference %d",
			prog.Name, policy, latency, wgs, wavesPerWG, got.cycles, want)
	}
	return got
}

// lineReach bounds how far above its own latency a line is checked
// against the reference: the reference's cost grows with the latency
// of a dependent chain.
const lineReach = 1000

// matchLine fails the test unless line, certified by a run at latency
// of the resident set, covers that latency and answers as the
// reference does at its lowest latency, at the highest within
// lineReach of latency, and at the latency draw picks between them.
func matchLine(t *testing.T, line rsLine, prog *isa.Program, wgs, wavesPerWG int, latency int64, policy SchedPolicy, draw uint64) {
	t.Helper()
	if line.lo > latency || latency > line.hi || line.latency != latency {
		t.Fatalf("%s policy=%v latency=%d: line [%d, %d] at %d does not cover its own latency",
			prog.Name, policy, latency, line.lo, line.hi, line.latency)
	}
	top := min(line.hi, latency+lineReach)
	for _, at := range []int64{line.lo, top, line.lo + int64(draw%uint64(top-line.lo+1))} {
		want, err := referenceResidentSet(prog, wgs, wavesPerWG, at, policy)
		if err != nil {
			t.Fatal(err)
		}
		if got := line.at(at); got != want {
			t.Errorf("%s policy=%v wgs=%d x %d waves: the line from latency %d over [%d, %d] answers %d cycles at %d, the reference %d",
				prog.Name, policy, wgs, wavesPerWG, latency, line.lo, line.hi, got, at, want)
		}
	}
}

// studyArchetypes are the pipeline study's archetypes, in the
// end-to-end benchmark's order.
var studyArchetypes = []suites.Archetype{suites.Balanced, suites.Stencil, suites.DenseCompute, suites.LDSHeavy,
	suites.CacheSensitive, suites.Reduction, suites.StreamBW, suites.GraphGather}

// studyKernels are the pipeline study's kernels: the first corpus
// kernel of each of studyArchetypes, in order.
func studyKernels(t testing.TB) []*kernel.Kernel {
	t.Helper()
	var out []*kernel.Kernel
	entries := suites.AllEntries(suites.Corpus())
	for _, a := range studyArchetypes {
		for _, e := range entries {
			if e.Archetype == a {
				out = append(out, e.Kernel)
				break
			}
		}
	}
	if len(out) != len(studyArchetypes) {
		t.Fatalf("the corpus has %d of the study's %d archetypes", len(out), len(studyArchetypes))
	}
	return out
}

// maxFuzzSlots bounds a fuzzed input's issue slots — its program's
// dynamic length times its waves — since the reference scans every
// wave each cycle and coverage instrumentation slows it about twenty
// times: at 2000 the fuzzer runs over 2000 inputs a second on two
// workers, at 5000 under 100. The seeds' study programs are cut there
// too; TestResidentSetMatchesReference runs them whole.
const maxFuzzSlots = 2000

// fuzzOps are the instruction classes a fuzzed program draws from; the
// decoder appends the OpEnd itself.
var fuzzOps = [...]isa.Op{isa.OpVALU, isa.OpLDS, isa.OpLoad, isa.OpStore, isa.OpSALU, isa.OpBarrier}

// decodeResidentSet turns arbitrary bytes into one resident-set input:
//
//	byte 0     bit 0 the policy (1 = GreedyThenOldest), the rest 1-10 workgroups
//	byte 1     1-4 waves per workgroup
//	bytes 2-3  a latency of 1-1000 cycles (big-endian)
//	3 bytes    per instruction: the op (low 7 bits, over fuzzOps)
//	           and DependsOnLoad (bit 7), then a count of 1-2000
//	           (big-endian)
//
// Missing header bytes read as zero; a trailing partial instruction is
// dropped, and OpEnd closes the program. Instructions stop at 256, or
// before the program's dynamic length times its waves would pass
// maxFuzzSlots.
func decodeResidentSet(data []byte) (prog *isa.Program, wgs, wavesPerWG int, latency int64, policy SchedPolicy) {
	var hdr [4]byte
	n := copy(hdr[:], data)
	data = data[n:]
	policy = SchedPolicy(hdr[0] & 1)
	wgs = 1 + int(hdr[0]>>1)%10
	wavesPerWG = 1 + int(hdr[1])%4
	latency = 1 + int64(binary.BigEndian.Uint16(hdr[2:]))%1000
	prog = &isa.Program{Name: "fuzz"}
	for dyn := 0; len(data) >= 3 && len(prog.Body) < 256; data = data[3:] {
		in := isa.Instr{
			Op:            fuzzOps[int(data[0]&0x7f)%len(fuzzOps)],
			Count:         1 + int(binary.BigEndian.Uint16(data[1:]))%2000,
			DependsOnLoad: data[0]&0x80 != 0,
		}
		if dyn += in.Count; dyn*wgs*wavesPerWG > maxFuzzSlots {
			break
		}
		prog.Body = append(prog.Body, in)
	}
	prog.Body = append(prog.Body, isa.Instr{Op: isa.OpEnd, Count: 1, DependsOnLoad: true})
	return prog, wgs, wavesPerWG, latency, policy
}

// encodeResidentSet is decodeResidentSet's inverse for a program whose
// only OpEnd is its last instruction and whose counts are at most 2000.
// It stops where the decoder would, so a seed holds no byte the fuzzer
// would spend time minimizing away.
func encodeResidentSet(prog *isa.Program, wgs, wavesPerWG int, latency int64, policy SchedPolicy) []byte {
	out := []byte{byte(policy) | byte(wgs-1)<<1, byte(wavesPerWG - 1), 0, 0}
	binary.BigEndian.PutUint16(out[2:], uint16(latency-1))
	dyn := 0
	for _, in := range prog.Body[:len(prog.Body)-1] {
		if dyn += in.Count; dyn*wgs*wavesPerWG > maxFuzzSlots {
			break
		}
		op := 0
		for op < len(fuzzOps) && fuzzOps[op] != in.Op {
			op++
		}
		if in.DependsOnLoad {
			op |= 0x80
		}
		out = append(out, byte(op))
		out = binary.BigEndian.AppendUint16(out, uint16(in.Count-1))
	}
	return out
}

// FuzzResidentSet holds the scheduler to its oracle on arbitrary
// programs, residencies, latencies and policies, from a corpus seeded
// with the pipeline study's programs, one workgroup each, and with
// programs that reach the states where a stretch with the memory port
// rotating must stop short, where a stretch crosses instruction ends,
// or where a blocked wave must wake. It holds the line each run
// certifies to the same oracle at three latencies inside it.
func FuzzResidentSet(f *testing.F) {
	for i, k := range studyKernels(f) {
		prog, err := isa.Lower(k)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeResidentSet(prog, 1, k.WavesPerWG(), 300, SchedPolicy(i&1)))
	}
	load := func(n int, dep bool) isa.Instr { return isa.Instr{Op: isa.OpLoad, Count: n, DependsOnLoad: dep} }
	store := isa.Instr{Op: isa.OpStore, Count: 6}
	valu := func(n int, dep bool) isa.Instr { return isa.Instr{Op: isa.OpVALU, Count: n, DependsOnLoad: dep} }
	lds := func(n int) isa.Instr { return isa.Instr{Op: isa.OpLDS, Count: n} }
	salu := isa.Instr{Op: isa.OpSALU, Count: 9}
	barrier := isa.Instr{Op: isa.OpBarrier, Count: 1}
	for _, seed := range []struct {
		body          []isa.Instr
		wgs, wavesPer int
		latency       int64
		policy        SchedPolicy
	}{
		// A wave reaches a dependent load while the others still rotate
		// over independent loads and stores.
		{[]isa.Instr{salu, load(1, false), load(8, true), load(12, false), store}, 2, 2, 20, RoundRobin},
		{[]isa.Instr{load(4, false), valu(60, false), load(5, true), store, valu(10, true)}, 1, 3, 20, GreedyThenOldest},
		// Waves park at a barrier, or reach their end, with loads
		// outstanding while the other workgroups rotate.
		{[]isa.Instr{load(12, false), barrier, valu(30, true), salu, load(8, false)}, 3, 2, 200, RoundRobin},
		// Latencies of one and two cycles complete loads inside a
		// stretch, some of them loads a dependent instruction waits on.
		{[]isa.Instr{load(16, false), valu(20, false), salu, load(1, true), valu(12, true), store}, 2, 3, 1, RoundRobin},
		{[]isa.Instr{load(16, false), valu(20, false), salu, load(1, true), valu(12, true), store}, 2, 3, 2, GreedyThenOldest},
		// Under GreedyThenOldest the oldest wave drains a run of
		// independent loads and stores alone.
		{[]isa.Instr{load(40, false), store, valu(30, true), load(3, true), salu}, 2, 2, 100, GreedyThenOldest},
		// A memory stretch crosses a load, store, load, store chain, and
		// the dependent VALU after it waits for the chain's last load.
		{[]isa.Instr{load(6, false), store, load(6, false), store, valu(20, true), salu}, 2, 2, 50, RoundRobin},
		{[]isa.Instr{load(6, false), store, load(6, false), store, valu(20, true), salu}, 2, 2, 50, GreedyThenOldest},
		// A vector stretch crosses VALU, LDS, VALU; the SALU after it
		// is another port's.
		{[]isa.Instr{valu(12, false), lds(6), valu(8, false), salu, valu(10, false), store}, 2, 3, 30, RoundRobin},
		// A run stops at the dependent VALU after an independent one,
		// while the loads it depends on are outstanding.
		{[]isa.Instr{load(8, false), valu(30, false), valu(20, true), store}, 2, 2, 300, RoundRobin},
		// A load, store, load chain ends at a load that depends on loads.
		{[]isa.Instr{load(5, false), store, load(6, false), load(3, true), valu(10, true)}, 2, 2, 40, RoundRobin},
		// A stretch crosses from a dependent store into independent
		// loads, whose later issues must not block on that dependence.
		{[]isa.Instr{{Op: isa.OpStore, Count: 98, DependsOnLoad: true}, load(129, false)}, 5, 1, 337, GreedyThenOldest},
	} {
		body := append(seed.body, isa.Instr{Op: isa.OpEnd, Count: 1, DependsOnLoad: true})
		f.Add(encodeResidentSet(&isa.Program{Name: "seed", Body: body}, seed.wgs, seed.wavesPer, seed.latency, seed.policy))
	}
	p := &cuPipeline{}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, wgs, wavesPerWG, latency, policy := decodeResidentSet(data)
		line := matchReference(t, p, prog, wgs, wavesPerWG, latency, policy)
		h := fnv.New64a()
		h.Write(data)
		matchLine(t, line, prog, wgs, wavesPerWG, latency, policy, h.Sum64())
	})
}

// TestResidentSetLinesMatchRuns holds a row's resident-set memo to
// direct runs: for each of the pipeline study's kernels at its full
// resident set, every load latency from 100 to 1,100 read off the
// memo's lines must give the cycles a run at that latency gives. The
// -v log counts the runs each row's memo made.
func TestResidentSetLinesMatchRuns(t *testing.T) {
	direct := &cuPipeline{}
	for _, k := range studyKernels(t) {
		p, err := Prepare(k)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := p.program()
		if err != nil {
			t.Fatal(err)
		}
		wgs := min(p.occWGs, k.Workgroups)
		for latency := int64(100); latency <= 1100; latency++ {
			got, err := p.residentSetCycles(prog, wgs, p.der.WavesPerWG, latency, RoundRobin)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runResidentSet(direct, nil, prog, wgs, p.der.WavesPerWG, latency, RoundRobin)
			if err != nil {
				t.Fatal(err)
			}
			if got != want.cycles {
				t.Errorf("%s latency %d: the memo answers %d cycles, a run takes %d", k.Name, latency, got, want.cycles)
			}
		}
		t.Logf("%-32s %d runs for 1,001 latencies", k.Name, p.stats.ResidentSetMisses)
	}
}
