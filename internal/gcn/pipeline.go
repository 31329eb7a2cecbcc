package gcn

import (
	"fmt"
	"math"
	"math/bits"

	"gpuscale/internal/hw"
	"gpuscale/internal/isa"
	"gpuscale/internal/kernel"
	"gpuscale/internal/memory"
)

// The pipeline engine: execution-driven, cycle-level simulation of one
// compute unit interpreting the kernel's lowered instruction stream
// (internal/isa). One full resident set (occupancy workgroups) runs
// cycle by cycle with per-port issue arbitration, a load scoreboard,
// and workgroup barriers; the measured resident-set time then replaces
// the round engine's analytic issue bound for the whole launch.
//
// It is the only engine that sees instruction order, so it captures
// what the others assume: that latency hiding works when independent
// instructions exist and fails when the stream is dependence-bound.

// Instruction classes. Each wave caches the class of its current
// instruction so eligibility is a one-byte compare instead of a Body
// lookup through a predicate call.
const (
	clsVector  uint8 = iota // VALU / LDS
	clsMemory               // load / store
	clsScalar               // SALU
	clsBarrier              // at a barrier instruction, not yet parked
	clsEnd                  // at the end marker
	clsBlocked              // parked at a barrier, or retired
)

// Eligibility sets. Every wave sits in at most one: its port's set
// (setVector, setMemory and setScalar share the port classes' values)
// while the scoreboard lets it issue, setResolve while it is at a
// barrier or at its end with no load outstanding, and none otherwise.
// A wave moves only where its eligibility changes: when it finishes an
// instruction, issues or retires a load, parks at or leaves a barrier,
// or retires. Picking a port's wave is then a bit scan.
const (
	setVector  = clsVector
	setMemory  = clsMemory
	setScalar  = clsScalar
	setResolve = clsBarrier
	numSets    = 4
	setNone    = numSets
)

func classOfOp(op isa.Op) uint8 {
	switch op {
	case isa.OpVALU, isa.OpLDS:
		return clsVector
	case isa.OpLoad, isa.OpStore:
		return clsMemory
	case isa.OpSALU:
		return clsScalar
	case isa.OpBarrier:
		return clsBarrier
	default:
		return clsEnd
	}
}

// pipelinePorts is the per-cycle issue capability of a CU in this
// model: one vector-ish instruction (VALU/LDS), one memory
// instruction, one scalar instruction — matching the aggregate rates
// the coarse engines assume. The struct doubles as the engine's
// reusable scratch: runResidentSet resets every field, so one
// cuPipeline can serve a whole row of evaluations.
type cuPipeline struct {
	prog       *isa.Program
	waves      []pipeWave
	wavesPerWG int

	// classOf/depOf mirror prog.Body per instruction index.
	classOf []uint8
	depOf   []bool

	// sets holds one bitset over the waves per eligibility set, each a
	// window of the one backing array bits.
	sets [numSets][]uint64
	bits []uint64

	// Load completions are FIFO because latency is constant. loadHead
	// indexes the next un-retired completion; consuming by advancing
	// the head instead of reslicing keeps the buffer reusable.
	loadDone []loadCompletion
	loadHead int

	// barrier bookkeeping per resident workgroup.
	arrived []int

	policy SchedPolicy

	cycle int64
	// skipped counts the cycles the run fast-forwarded.
	skipped int64
}

type pipeWave struct {
	wg        int   // resident workgroup index
	instr     int   // index into prog.Body
	remaining int   // repetitions left of the current instruction
	loads     int   // outstanding loads
	cls       uint8 // class of Body[instr], clsBlocked when parked/done
	set       uint8 // eligibility set holding the wave, setNone if none
	dep       bool  // Body[instr].DependsOnLoad
	atBarrier bool
}

type loadCompletion struct {
	cycle int64
	wave  int
}

// SimulatePipeline runs the execution-driven engine for one kernel on
// one configuration. Use for validation. The resident-set simulation
// costs a step per issue event, not per cycle: each memory issue, each
// load completion that ends a stall, each instruction a wave finishes
// and each barrier or end, while a stretch of pure vector and scalar
// rotation costs one step and a scan of the waves it rotates over. The
// launch loop adds a step per resident batch. For whole-row
// evaluation, Prepare once and call EvalPipeline per config: the
// resident-set simulation is memoized on its quantized inputs, which
// collapses most of a row onto a few cycle runs.
func SimulatePipeline(k *kernel.Kernel, cfg hw.Config) (Result, error) {
	p, err := Prepare(k)
	if err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return p.EvalPipeline(cfg)
}

// EvalPipeline runs the pipeline engine on one already-validated
// configuration using the prepared (lazily lowered) program and the
// resident-set memo.
func (p *Prepared) EvalPipeline(cfg hw.Config) (Result, error) {
	k := p.k
	occWGs := p.occWGs
	prog, err := p.program()
	if err != nil {
		return Result{}, err
	}
	d := p.demandFor(cfg)
	hier := memory.NewHierarchy(cfg)
	hr := p.hitRates(occWGs, cfg.CUs, cfg.L2CapacityBytes())

	// Estimate channel utilisation from the analytic solver so load
	// latency reflects queueing, then convert to cycles.
	fullBatch := cfg.CUs * occWGs
	totalWGs := fullBatch
	if k.Workgroups < totalWGs {
		totalWGs = k.Workgroups
	}
	analyticT, _, _ := p.batchTime(cfg, d, cfg.CUs, occWGs, totalWGs)
	util := 0.0
	if analyticT > 0 {
		effBW := hier.EffectiveBandwidthGBs(k.Mem.Pattern)
		dramBytes := float64(totalWGs) * d.transBytesPerWG * (1 - hr.L1) * (1 - hr.L2)
		if effBW > 0 {
			util = clampUnit(dramBytes / effBW / analyticT)
		}
	}
	latencyCycles := int64(math.Ceil(hier.AvgAccessLatencyNS(hr, util) / cfg.CoreCycleNS()))
	if latencyCycles < 1 {
		latencyCycles = 1
	}

	// Cycle-simulate one CU holding one full resident set. The memo
	// key is the simulation's full input tuple beyond the (fixed)
	// program.
	residentWGs := occWGs
	if k.Workgroups < residentWGs {
		residentWGs = k.Workgroups
	}
	cycles, err := p.residentSetCycles(prog, residentWGs, d.wavesPerWG, latencyCycles, RoundRobin)
	if err != nil {
		return Result{}, err
	}
	setTimeNS := float64(cycles) * cfg.CoreCycleNS()

	// Whole launch: the measured resident-set time replaces the
	// analytic issue bound; global bandwidth bounds still apply.
	kernelNS := 0.0
	var boundNS boundTimes
	remaining := k.Workgroups
	for batches := 1; remaining > 0; batches++ {
		if batches&(budgetEvery-1) == 0 {
			if err := p.bud.check(); err != nil {
				return Result{}, err
			}
		}
		batch := fullBatch
		if remaining < batch {
			batch = remaining
		}
		activeCUs := (batch + occWGs - 1) / occWGs
		if activeCUs > cfg.CUs {
			activeCUs = cfg.CUs
		}
		hrB := p.hitRates(occWGs, activeCUs, cfg.L2CapacityBytes())
		l2Bytes := float64(batch) * d.transBytesPerWG * (1 - hrB.L1)
		dramBytes := l2Bytes * (1 - hrB.L2)
		l2T := 0.0
		if l2Bytes > 0 {
			l2T = l2Bytes / l2BandwidthGBs(cfg)
		}
		dramT := 0.0
		if eff := hier.EffectiveBandwidthGBs(k.Mem.Pattern); eff > 0 && dramBytes > 0 {
			dramT = dramBytes / eff
		}
		t := setTimeNS
		b := BoundCompute
		if dramT > t {
			t, b = dramT, BoundDRAM
		}
		if l2T > t {
			t, b = l2T, BoundL2
		}
		kernelNS += t
		boundNS[b] += t
		remaining -= batch
	}

	total := kernelNS + k.LaunchOverheadNS
	dominant, share := dominantBound(&boundNS, k.LaunchOverheadNS, total)
	transBytes := d.transBytesPerWG * float64(k.Workgroups)
	dramBytes := transBytes * (1 - hr.L1) * (1 - hr.L2)
	return Result{
		TimeNS:         total,
		KernelNS:       kernelNS,
		Throughput:     float64(p.der.TotalWorkItems) / total,
		AchievedGFLOPS: d.flopsPerWG * float64(k.Workgroups) / total,
		AchievedGBs:    dramBytes / total,
		HitRates:       hr,
		OccupancyWaves: p.der.OccupancyWavesPerCU,
		Bound:          dominant,
		BoundShare:     share,
	}, nil
}

// SchedPolicy selects the wavefront scheduling policy of the pipeline
// engine's issue ports.
type SchedPolicy int

// Scheduling policies.
const (
	// RoundRobin rotates fairly across ready waves (the default; GCN's
	// baseline arbitration is close to this).
	RoundRobin SchedPolicy = iota
	// GreedyThenOldest always drains the oldest ready wave — the GTO
	// policy common in GPU-simulator studies.
	GreedyThenOldest
)

// String names the policy.
func (p SchedPolicy) String() string {
	if p == GreedyThenOldest {
		return "gto"
	}
	return "round-robin"
}

// simulateResidentSet runs wgs workgroups (wavesPerWG waves each) of
// prog on one CU under the default policy and returns the cycles to
// drain them all.
func simulateResidentSet(prog *isa.Program, wgs, wavesPerWG int, latencyCycles int64) (int64, error) {
	return SimulateResidentSetPolicy(prog, wgs, wavesPerWG, latencyCycles, RoundRobin)
}

// SimulateResidentSetPolicy is the policy-parameterised resident-set
// simulation, exposed for the scheduler-policy ablation: it returns
// the cycles one CU needs to drain wgs workgroups of the program.
func SimulateResidentSetPolicy(prog *isa.Program, wgs, wavesPerWG int, latencyCycles int64, policy SchedPolicy) (int64, error) {
	if err := prog.Validate(); err != nil {
		return 0, err
	}
	return runResidentSet(&cuPipeline{}, nil, prog, wgs, wavesPerWG, latencyCycles, policy)
}

// runResidentSet runs wgs workgroups (wavesPerWG waves each) of prog
// on one CU and returns the cycles to drain them all, or the budget's
// error if it expires first. The program must already be validated. p
// is reset completely before use, so callers may hand in a reused
// scratch pipeline — including one a cut-off run left mid-simulation.
//
// The loop's cost follows issue events, not cycles: a cycle in which
// every wave is stalled jumps to the next load completion, and a
// stretch in which only the vector and scalar ports' rotations advance
// is crossed in one step (fastForward). Every cycle count is the one a
// cycle-by-cycle walk gives (TestResidentSetMatchesReference,
// FuzzResidentSet).
func runResidentSet(p *cuPipeline, bud *budget, prog *isa.Program, wgs, wavesPerWG int, latencyCycles int64, policy SchedPolicy) (int64, error) {
	p.prog = prog
	p.wavesPerWG = wavesPerWG
	p.policy = policy
	p.cycle = 0
	p.skipped = 0
	p.loadDone = p.loadDone[:0]
	p.loadHead = 0
	p.arrived = growI(p.arrived, wgs)
	body := prog.Body
	if cap(p.classOf) < len(body) {
		p.classOf = make([]uint8, len(body))
		p.depOf = make([]bool, len(body))
	}
	p.classOf = p.classOf[:len(body)]
	p.depOf = p.depOf[:len(body)]
	for i := range body {
		p.classOf[i] = classOfOp(body[i].Op)
		p.depOf[i] = body[i].DependsOnLoad
	}
	n := wgs * wavesPerWG
	words := (n + 63) >> 6
	if cap(p.bits) < numSets*words {
		p.bits = make([]uint64, numSets*words)
	}
	p.bits = p.bits[:numSets*words]
	clear(p.bits)
	for s := range p.sets {
		p.sets[s] = p.bits[s*words : (s+1)*words]
	}
	p.waves = p.waves[:0]
	for wg := 0; wg < wgs; wg++ {
		for i := 0; i < wavesPerWG; i++ {
			p.waves = append(p.waves, pipeWave{
				wg:        wg,
				remaining: body[0].Count,
				cls:       p.classOf[0],
				set:       setNone,
				dep:       p.depOf[0],
			})
			p.place(len(p.waves) - 1)
		}
	}

	live := n
	rrVec, rrMem, rrScalar := 0, 0, 0
	const safety = int64(1) << 40
	for steps := 1; live > 0; steps++ {
		if p.cycle > safety {
			return 0, fmt.Errorf("gcn: pipeline engine ran away on %s", prog.Name)
		}
		if steps&(budgetEvery-1) == 0 {
			if err := bud.check(); err != nil {
				return 0, err
			}
		}
		// Retire loads completing at or before this cycle.
		for p.loadHead < len(p.loadDone) && p.loadDone[p.loadHead].cycle <= p.cycle {
			w := p.loadDone[p.loadHead].wave
			p.loadHead++
			if p.waves[w].loads--; p.waves[w].loads == 0 {
				p.place(w)
			}
		}
		if p.fastForward(&rrVec, &rrScalar) {
			continue
		}

		issued := false
		// One vector (VALU/LDS), one memory (load/store), one scalar
		// issue per cycle, each from any ready wave, round-robin.
		if w := p.pick(&rrVec, setVector); w >= 0 {
			p.step(w)
			issued = true
		}
		if w := p.pick(&rrMem, setMemory); w >= 0 {
			wv := &p.waves[w]
			if p.prog.Body[wv.instr].Op == isa.OpLoad {
				wv.loads++
				p.loadDone = append(p.loadDone, loadCompletion{cycle: p.cycle + latencyCycles, wave: w})
			}
			p.step(w)
			p.place(w)
			issued = true
		}
		if w := p.pick(&rrScalar, setScalar); w >= 0 {
			p.step(w)
			issued = true
		}
		// Non-port instructions: barriers and ends resolve without an
		// issue slot, in wave order. A barrier release can move a later
		// wave into the set; it resolves in this same pass.
		resolve := p.sets[setResolve]
		for w := nextBit(resolve, 0); w >= 0; w = nextBit(resolve, w+1) {
			wv := &p.waves[w]
			wv.atBarrier = wv.cls == clsBarrier
			wv.cls = clsBlocked
			p.place(w)
			if wv.atBarrier {
				p.arrived[wv.wg]++
				if p.arrived[wv.wg] == p.wavesPerWG {
					p.releaseBarrier(wv.wg)
				}
			} else {
				live--
			}
			issued = true
		}

		if issued {
			p.cycle++
			continue
		}
		// Everything is stalled: skip to the next load completion.
		if p.loadHead < len(p.loadDone) {
			p.cycle = p.loadDone[p.loadHead].cycle
			continue
		}
		return 0, fmt.Errorf("gcn: pipeline deadlock on %s at cycle %d", prog.Name, p.cycle)
	}
	return p.cycle, nil
}

// fastForward crosses, in one step, the cycles in which nothing
// happens but the vector and scalar ports' rotations: no wave can use
// the memory port, none waits to resolve a barrier or its end (a wave
// at its end is still waiting on a load), no load completes, and no
// issuing wave finishes its instruction. Each port issues every cycle
// of such a stretch, so its waves' repetitions, the cycle and the
// round-robin pointers move exactly as that many single cycles would
// move them. It reports whether it advanced; a stretch shorter than
// two cycles is left to the loop's single cycle.
func (p *cuPipeline) fastForward(rrVec, rrScalar *int) bool {
	if !empty(p.sets[setMemory]) || !empty(p.sets[setResolve]) {
		return false
	}
	vec, scalar := p.sets[setVector], p.sets[setScalar]
	hasVec, hasScalar := !empty(vec), !empty(scalar)
	m := int64(math.MaxInt64)
	if p.loadHead < len(p.loadDone) {
		m = p.loadDone[p.loadHead].cycle - p.cycle
	}
	if m < 2 || !hasVec && !hasScalar {
		return false
	}
	if hasVec {
		m = min(m, p.span(vec, *rrVec))
	}
	if hasScalar {
		m = min(m, p.span(scalar, *rrScalar))
	}
	if m < 2 {
		return false
	}
	if hasVec {
		p.advance(vec, rrVec, m)
	}
	if hasScalar {
		p.advance(scalar, rrScalar, m)
	}
	p.cycle += m
	p.skipped += m
	return true
}

// span is how many consecutive cycles the port whose waves are b can
// issue from them before one would finish its instruction. Under
// GreedyThenOldest the lowest wave issues alone. Under RoundRobin the
// rotation from rr picks the wave at offset o of it at cycles o,
// o+e, o+2e, ... (e waves), so a wave with r repetitions left can be
// picked until cycle o+(r-1)e.
func (p *cuPipeline) span(b []uint64, rr int) int64 {
	if p.policy == GreedyThenOldest {
		return int64(p.waves[nextBit(b, 0)].remaining - 1)
	}
	if p.waves[nextBitWrap(b, rr)].remaining == 1 {
		return 0
	}
	e, o := rotation(b, rr)
	m := int64(math.MaxInt64)
	for j, x := range b {
		for ; x != 0; x &= x - 1 {
			w := j<<6 | bits.TrailingZeros64(x)
			m = min(m, int64(o+(p.waves[w].remaining-1)*e))
			if o++; o == e {
				o = 0
			}
		}
	}
	return m
}

// advance issues m cycles' worth of the port whose waves are b, which
// span allows: m/e whole rotations, then the first m%e picks of one
// more. It leaves *rr where the m-th pick leaves it.
func (p *cuPipeline) advance(b []uint64, rr *int, m int64) {
	if p.policy == GreedyThenOldest {
		p.waves[nextBit(b, 0)].remaining -= int(m)
		return
	}
	e, o := rotation(b, *rr)
	rounds, extra := int(m/int64(e)), int(m%int64(e))
	last := extra - 1
	if last < 0 {
		last = e - 1
	}
	for j, x := range b {
		for ; x != 0; x &= x - 1 {
			w := j<<6 | bits.TrailingZeros64(x)
			p.waves[w].remaining -= rounds
			if o < extra {
				p.waves[w].remaining--
			}
			if o == last {
				if *rr = w + 1; *rr == len(p.waves) {
					*rr = 0
				}
			}
			if o++; o == e {
				o = 0
			}
		}
	}
}

// rotation returns how many waves b holds and the offset, in the
// round-robin rotation from rr, of the lowest of them: the rotation
// picks first the lowest wave at or after rr, so the waves below rr
// come last.
func rotation(b []uint64, rr int) (e, o int) {
	below := 0
	for j, x := range b {
		e += bits.OnesCount64(x)
		if lo := j << 6; lo < rr {
			if rr-lo < 64 {
				x &= 1<<(rr-lo) - 1
			}
			below += bits.OnesCount64(x)
		}
	}
	if o = e - below; o == e {
		o = 0
	}
	return e, o
}

// pick returns the wave the port whose set is s issues this cycle, or
// -1: under RoundRobin the first eligible wave at or after *rr,
// wrapping, which moves *rr past it; under GreedyThenOldest the lowest
// (oldest) eligible wave.
func (p *cuPipeline) pick(rr *int, s uint8) int {
	if p.policy == GreedyThenOldest {
		return nextBit(p.sets[s], 0)
	}
	w := nextBitWrap(p.sets[s], *rr)
	if w >= 0 {
		if *rr = w + 1; *rr == len(p.waves) {
			*rr = 0
		}
	}
	return w
}

// place moves wave w into the eligibility set its state calls for.
func (p *cuPipeline) place(w int) {
	wv := &p.waves[w]
	s := uint8(setNone)
	switch wv.cls {
	case clsVector, clsMemory, clsScalar:
		if !wv.dep || wv.loads == 0 {
			s = wv.cls
		}
	case clsBarrier:
		s = setResolve
	case clsEnd:
		if wv.loads == 0 {
			s = setResolve
		}
	}
	if s == wv.set {
		return
	}
	bit := uint64(1) << (w & 63)
	if wv.set != setNone {
		p.sets[wv.set][w>>6] &^= bit
	}
	if s != setNone {
		p.sets[s][w>>6] |= bit
	}
	wv.set = s
}

// step consumes one repetition of wave w's current instruction and
// re-places the wave when it moves on to the next one.
func (p *cuPipeline) step(w int) {
	wv := &p.waves[w]
	wv.remaining--
	if wv.remaining != 0 {
		return
	}
	wv.instr++
	if wv.instr < len(p.prog.Body) {
		wv.remaining = p.prog.Body[wv.instr].Count
		wv.cls = p.classOf[wv.instr]
		wv.dep = p.depOf[wv.instr]
		p.place(w)
	}
}

// releaseBarrier wakes every wave of a workgroup waiting at a barrier
// and advances them past it.
func (p *cuPipeline) releaseBarrier(wg int) {
	p.arrived[wg] = 0
	for w := wg * p.wavesPerWG; w < (wg+1)*p.wavesPerWG; w++ {
		wv := &p.waves[w]
		if wv.atBarrier {
			wv.atBarrier = false
			// Un-park onto the barrier instruction before stepping so a
			// multi-repetition barrier re-arrives exactly as an
			// uncached scan of Body would.
			wv.cls = clsBarrier
			p.step(w)
			p.place(w)
		}
	}
}

// nextBit returns the lowest set bit of b at or after i, or -1.
func nextBit(b []uint64, i int) int {
	j := i >> 6
	if j >= len(b) {
		return -1
	}
	if x := b[j] >> (i & 63); x != 0 {
		return i + bits.TrailingZeros64(x)
	}
	for j++; j < len(b); j++ {
		if b[j] != 0 {
			return j<<6 | bits.TrailingZeros64(b[j])
		}
	}
	return -1
}

// nextBitWrap returns the first set bit of b at or after i, wrapping
// past the end, or -1 when b is empty. i must index a bit of b.
func nextBitWrap(b []uint64, i int) int {
	j := i >> 6
	if x := b[j] >> (i & 63); x != 0 {
		return i + bits.TrailingZeros64(x)
	}
	for range b {
		if j++; j == len(b) {
			j = 0
		}
		if b[j] != 0 {
			return j<<6 | bits.TrailingZeros64(b[j])
		}
	}
	return -1
}

// empty reports whether bitset b has no bit set.
func empty(b []uint64) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
