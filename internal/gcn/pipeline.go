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
// barrier, or at its end with no load outstanding, setWait while it is
// blocked on its loads (at an instruction that depends on them, or at
// its end), and setNone while it is parked at a barrier or retired.
// A wave moves only where its eligibility changes: when it finishes an
// instruction, issues a load that depends on loads, is woken by its
// newest load's completion, parks at or leaves a barrier, or retires.
// Picking a port's wave is then a bit scan, and waking the waves
// blocked on loads is a heap pop.
const (
	setVector  = clsVector
	setMemory  = clsMemory
	setScalar  = clsScalar
	setResolve = clsBarrier
	numPorts   = setResolve
	numSets    = 4
	setNone    = numSets
	setWait    = numSets + 1
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

	// classOf/depOf mirror prog.Body per instruction index; depLoadOf
	// marks the loads that depend on loads, each issue of which blocks
	// its wave. tail[i] sums the counts of the instructions after i that
	// share its port and depend on no load, up to the first that does
	// not: a wave crosses those instruction ends without leaving its
	// port's set.
	classOf   []uint8
	depOf     []bool
	depLoadOf []bool
	tail      []int

	// sets holds one bitset over the waves per eligibility set, each a
	// window of the one backing array bits.
	sets [numSets][]uint64
	bits []uint64

	// wait is a min-heap, on doneAt, of the waves in setWait. A blocked
	// wave issues nothing, so its doneAt holds until it is woken, and it
	// has at most one entry.
	wait []int

	// barrier bookkeeping per resident workgroup.
	arrived []int

	policy  SchedPolicy
	latency int64 // the run's load latency L0, in cycles

	cycle tick
	// lo and hi bound the load latencies at which every comparison of
	// times the run has made so far gives the answer it gave at L0.
	lo, hi int64
	// steps counts the last run's loop steps, skipped the cycles it
	// fast-forwarded, memSkipped those of them in which the memory port
	// rotated too, and crossed the instruction ends its waves passed
	// inside those stretches.
	steps, skipped, memSkipped, crossed int64
}

type pipeWave struct {
	wg        int // resident workgroup index
	instr     int // index into prog.Body
	remaining int // repetitions left of the current instruction
	// doneAt is the cycle at which the wave's newest load completes.
	// Latency is constant, so loads complete in issue order: the wave
	// has loads outstanding exactly while doneAt > cycle.
	doneAt    tick
	cls       uint8 // class of Body[instr], clsBlocked when parked/done
	set       uint8 // eligibility set holding the wave
	dep       bool  // Body[instr].DependsOnLoad
	atBarrier bool
}

// tick is a time in cycles as a line in the load latency L: v is its
// value at the run's own latency L0, and k the cycles it gains per
// cycle of latency, so at L it reads v + k·(L − L0). A load's
// completion adds one L to the cycle it issues at, a stall jump takes
// the k of the completion it jumps to, and nothing else moves k.
type tick struct{ v, k int64 }

func (t tick) plus(n int64) tick { return tick{t.v + n, t.k} }

// rsLine is what one resident-set run at a load latency certifies: at
// every latency L in [lo, hi] the run takes each branch as it did, so
// it is the same run, and its cycle count, a sum of the same steps, is
// cycles + k·(L − latency).
type rsLine struct{ lo, hi, latency, cycles, k int64 }

func (l rsLine) at(latency int64) int64 { return l.cycles + l.k*(latency-l.latency) }

// SimulatePipeline runs the execution-driven engine for one kernel on
// one configuration. Use for validation. The resident-set simulation
// costs a step per change of a wave's eligibility, not per cycle: each
// run a wave ends (it changes port, or reaches an instruction that
// depends on loads), each load that depends on loads, each completion
// that wakes a blocked wave and each barrier or end, while a stretch in
// which the issue ports only rotate costs one step and a scan of the
// waves they rotate over. The launch loop adds a step per
// resident batch. For whole-row evaluation, Prepare once and call
// EvalPipeline per config: a resident-set run certifies the range of
// load latencies over which its cycle count is a line in the latency,
// and the row's memo answers every latency inside a stored line, so
// most rows simulate one resident set in all.
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
// resident-set memo, whose lines answer any load latency they cover:
// the core and memory clocks reach the resident set only as that
// latency, in core cycles.
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

	// Cycle-simulate one CU holding one full resident set, or read its
	// cycles off a line an earlier run certified.
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
	l, err := runResidentSet(&cuPipeline{}, nil, prog, wgs, wavesPerWG, latencyCycles, policy)
	return l.cycles, err
}

// runResidentSet runs wgs workgroups (wavesPerWG waves each) of prog
// on one CU at load latency latencyCycles and returns the line it
// certifies, whose cycles drain them all, or the budget's
// error if it expires first. The program must already be validated. p
// is reset completely before use, so callers may hand in a reused
// scratch pipeline — including one a cut-off run left mid-simulation.
//
// The loop's cost follows changes of eligibility, not cycles: a cycle
// in which every wave is blocked or parked jumps to the next completion
// that wakes a wave, and a stretch in which the vector, memory and
// scalar ports only rotate is crossed in one step (fastForward), across
// the instruction ends that keep each wave on its port. Every cycle
// count is the one a cycle-by-cycle walk gives
// (TestResidentSetMatchesReference, FuzzResidentSet), and so is every
// line's answer inside its range (FuzzResidentSet,
// TestResidentSetLinesMatchRuns).
//
// The line: every time is a tick, and every comparison of two goes
// through before, which narrows [lo, hi] to the latencies that give the
// same answer. The runaway guard is one of them, so a line never covers
// a latency at which the run would stop. Inside [lo, hi] each branch
// goes the same way and each time is built by the same additions, so
// the run is the same run. One step breaks this: a stretch bounded by
// the next wake, whose length has k ≠ 0, splits a length that changes
// with the latency into whole rotations and a remainder, so the waves'
// positions after it change too; such a stretch pins the line to L0.
func runResidentSet(p *cuPipeline, bud *budget, prog *isa.Program, wgs, wavesPerWG int, latencyCycles int64, policy SchedPolicy) (rsLine, error) {
	p.prog = prog
	p.wavesPerWG = wavesPerWG
	p.policy = policy
	p.latency = latencyCycles
	p.cycle = tick{}
	p.lo, p.hi = 1, math.MaxInt64
	p.steps, p.skipped, p.memSkipped, p.crossed = 0, 0, 0, 0
	p.wait = p.wait[:0]
	p.arrived = growI(p.arrived, wgs)
	body := prog.Body
	if cap(p.classOf) < len(body) {
		p.classOf = make([]uint8, len(body))
		p.depOf = make([]bool, len(body))
		p.depLoadOf = make([]bool, len(body))
		p.tail = make([]int, len(body))
	}
	p.classOf = p.classOf[:len(body)]
	p.depOf = p.depOf[:len(body)]
	p.depLoadOf = p.depLoadOf[:len(body)]
	p.tail = p.tail[:len(body)]
	for i := len(body) - 1; i >= 0; i-- {
		c := classOfOp(body[i].Op)
		p.classOf[i] = c
		p.depOf[i] = body[i].DependsOnLoad
		p.depLoadOf[i] = body[i].DependsOnLoad && body[i].Op == isa.OpLoad
		p.tail[i] = 0
		if j := i + 1; j < len(body) && c < numPorts && p.classOf[j] == c && !p.depOf[j] {
			p.tail[i] = body[j].Count + p.tail[j]
		}
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
	var rr [numPorts]int // each port's round-robin pointer
	safety := tick{1 << 40, 0}
	for live > 0 {
		if p.before(safety, p.cycle) {
			return rsLine{}, fmt.Errorf("gcn: pipeline engine ran away on %s", prog.Name)
		}
		if p.steps++; p.steps&(budgetEvery-1) == 0 {
			if err := bud.check(); err != nil {
				return rsLine{}, err
			}
		}
		// Wake the waves whose newest load completes at or before this
		// cycle.
		for len(p.wait) > 0 && !p.before(p.cycle, p.waves[p.wait[0]].doneAt) {
			p.place(p.pop())
		}
		if p.fastForward(&rr) {
			continue
		}

		issued := false
		// One vector (VALU/LDS), one memory (load/store), one scalar
		// issue per cycle, each from any ready wave, round-robin.
		if w := p.pick(&rr[setVector], setVector); w >= 0 {
			p.step(w)
			issued = true
		}
		if w := p.pick(&rr[setMemory], setMemory); w >= 0 {
			wv := &p.waves[w]
			if p.prog.Body[wv.instr].Op == isa.OpLoad {
				wv.doneAt = tick{p.cycle.v + latencyCycles, p.cycle.k + 1}
			}
			p.step(w)
			p.place(w)
			issued = true
		}
		if w := p.pick(&rr[setScalar], setScalar); w >= 0 {
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
			p.cycle.v++
			continue
		}
		// Every wave is blocked on its loads or parked at a barrier:
		// skip to the first wake.
		if len(p.wait) > 0 {
			p.cycle = p.waves[p.wait[0]].doneAt
			continue
		}
		return rsLine{}, fmt.Errorf("gcn: pipeline deadlock on %s at cycle %d", prog.Name, p.cycle.v)
	}
	return rsLine{p.lo, p.hi, latencyCycles, p.cycle.v, p.cycle.k}, nil
}

// before reports whether time x comes before time y at the run's own
// latency L0, and narrows [lo, hi] to the latencies at which it gives
// the same answer: with y − x = s + k·(L − L0), x comes before y while
// that difference is at least one, and not while it is at most zero.
func (p *cuPipeline) before(x, y tick) bool {
	s, k := y.v-x.v, y.k-x.k
	yes := s > 0
	if yes {
		s--
	} else {
		s, k = -s, -k
	}
	// The answer holds while s + k·(L − L0) >= 0, and s >= 0.
	if k > 0 {
		p.lo = max(p.lo, p.latency-s/k)
	} else if k < 0 {
		p.hi = min(p.hi, p.latency+s/-k)
	}
	return yes
}

// fastForward crosses, in one step, the cycles in which nothing
// happens but the issue ports' rotations: no wave waits to resolve a
// barrier or its end, no blocked wave wakes, and no issue changes a
// wave's eligibility — no issuing wave ends its run (it may finish
// instructions inside it), and none issues a load that depends on
// loads. Each port with waves issues every cycle of such a stretch, so
// its waves' instructions and repetitions, the cycle and the
// round-robin pointers move exactly as that many single cycles would
// move them. A store or an independent load changes nothing else: its
// wave's doneAt matters only once the wave has left its run, so advance
// sets it from the wave's last load pick in the stretch. It reports
// whether it advanced; a stretch shorter than two cycles is left to the
// loop's single cycle, and the O(1) tests (opens) reject one before any
// scan over the waves.
func (p *cuPipeline) fastForward(rr *[numPorts]int) bool {
	if !empty(p.sets[setResolve]) {
		return false
	}
	waking := len(p.wait) > 0
	var wake tick
	if waking {
		if wake = p.waves[p.wait[0]].doneAt; p.before(wake, p.cycle.plus(2)) {
			return false
		}
	}
	var busy [numPorts]bool
	rotating := false
	for s := range busy {
		if busy[s] = !empty(p.sets[s]); busy[s] {
			if !p.opens(p.sets[s], rr[s]) {
				return false
			}
			rotating = true
		}
	}
	if !rotating {
		return false
	}
	m := int64(math.MaxInt64)
	for s := range busy {
		if busy[s] {
			m = min(m, p.span(p.sets[s], rr[s]))
		}
	}
	// A stretch the next wake cuts short ends at it; if its length
	// moves with the latency, so do the waves' positions after it.
	if waking && p.before(wake, p.cycle.plus(m)) {
		if m = wake.v - p.cycle.v; wake.k != p.cycle.k {
			p.lo, p.hi = p.latency, p.latency
		}
	}
	for s := range busy {
		if busy[s] {
			p.advance(p.sets[s], &rr[s], m)
		}
	}
	if busy[setMemory] {
		p.memSkipped += m
	}
	p.cycle.v += m
	p.skipped += m
	return true
}

// run is how many picks wave w takes up to and including the one that
// can change its eligibility: its instruction's repetitions left plus
// its tail, the instructions after it on the same port that depend on
// no load, or one at a load that depends on loads, whose issue blocks
// the wave.
func (p *cuPipeline) run(w int) int {
	if wv := &p.waves[w]; !p.depLoadOf[wv.instr] {
		return wv.remaining + p.tail[wv.instr]
	}
	return 1
}

// opens reports whether the port whose waves are b can issue for two
// cycles before any issue changes a wave's eligibility: neither of its
// next two picks is the last of its wave's run (under GreedyThenOldest
// the lowest wave takes both, so it needs a run of three). It looks at
// two waves, where span scans them all.
func (p *cuPipeline) opens(b []uint64, rr int) bool {
	if p.policy == GreedyThenOldest {
		return p.run(nextBit(b, 0)) > 2
	}
	w := nextBitWrap(b, rr)
	next := w + 1
	if next == len(p.waves) {
		next = 0
	}
	if v := nextBitWrap(b, next); v != w {
		return p.run(w) > 1 && p.run(v) > 1
	}
	return p.run(w) > 2
}

// span is how many consecutive cycles the port whose waves are b can
// issue from them before an issue would change a wave's eligibility:
// the stretch takes every pick of a wave's run but its last. Under
// GreedyThenOldest the lowest wave issues alone. Under RoundRobin the
// rotation from rr picks the wave at offset o of it at cycles o, o+e,
// o+2e, ... (e waves), so a wave with a run of r picks can be picked
// until cycle o+(r-1)e.
func (p *cuPipeline) span(b []uint64, rr int) int64 {
	if p.policy == GreedyThenOldest {
		return int64(p.run(nextBit(b, 0)) - 1)
	}
	e, o := rotation(b, rr)
	m := int64(math.MaxInt64)
	for j, x := range b {
		for ; x != 0; x &= x - 1 {
			w := j<<6 | bits.TrailingZeros64(x)
			m = min(m, int64(o+(p.run(w)-1)*e))
			if o++; o == e {
				o = 0
			}
		}
	}
	return m
}

// advance issues m cycles' worth of the port whose waves are b, which
// span allows: under GreedyThenOldest m picks of the lowest wave, under
// RoundRobin m/e whole rotations, then the first m%e picks of one more.
// It leaves *rr where the m-th pick leaves it.
func (p *cuPipeline) advance(b []uint64, rr *int, m int64) {
	if p.policy == GreedyThenOldest {
		p.take(nextBit(b, 0), int(m), 0, 1)
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
			picks := rounds
			if o < extra {
				picks++
			}
			p.take(w, picks, int64(o), int64(e))
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

// take moves wave w through n picks of a stretch, the first at cycle
// offset o and then one every e cycles, which its run allows: it walks
// the wave across the instruction ends they cover (its set cannot
// change) and sets doneAt from the last of them that issues a load.
func (p *cuPipeline) take(w, n int, o, e int64) {
	wv := &p.waves[w]
	at := p.cycle.v + o // the cycle of the wave's next pick
	for n > 0 {
		c := min(n, wv.remaining)
		at += int64(c) * e
		if p.prog.Body[wv.instr].Op == isa.OpLoad {
			wv.doneAt = tick{at - e + p.latency, p.cycle.k + 1}
		}
		n -= c
		if wv.remaining -= c; wv.remaining == 0 {
			wv.instr++
			wv.remaining = p.prog.Body[wv.instr].Count
			wv.dep = p.depOf[wv.instr]
			p.crossed++
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

// place moves wave w into the eligibility set its state calls for,
// queueing it on the wait heap when it blocks on its loads.
func (p *cuPipeline) place(w int) {
	wv := &p.waves[w]
	s := uint8(setNone)
	switch wv.cls {
	case clsVector, clsMemory, clsScalar:
		s = wv.cls
		if wv.dep && p.before(p.cycle, wv.doneAt) {
			s = setWait
		}
	case clsBarrier:
		s = setResolve
	case clsEnd:
		s = setResolve
		if p.before(p.cycle, wv.doneAt) {
			s = setWait
		}
	}
	if s == wv.set {
		return
	}
	bit := uint64(1) << (w & 63)
	if wv.set < numSets {
		p.sets[wv.set][w>>6] &^= bit
	}
	if s < numSets {
		p.sets[s][w>>6] |= bit
	} else if s == setWait {
		p.push(w)
	}
	wv.set = s
}

// push queues wave w on the wait heap.
func (p *cuPipeline) push(w int) {
	at := p.waves[w].doneAt
	h := append(p.wait, w)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !p.before(at, p.waves[h[up]].doneAt) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = w
	p.wait = h
}

// pop removes the wait heap's wave with the earliest doneAt and
// returns it.
func (p *cuPipeline) pop() int {
	h := p.wait
	top, w := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) > 0 {
		at := p.waves[w].doneAt
		i := 0
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && p.before(p.waves[h[c+1]].doneAt, p.waves[h[c]].doneAt) {
				c++
			}
			if !p.before(p.waves[h[c]].doneAt, at) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = w
	}
	p.wait = h
	return top
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
