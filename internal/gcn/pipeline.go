package gcn

import (
	"fmt"
	"math"

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
// instruction so the per-cycle port scans are one-byte compares
// instead of Body lookups through a predicate call, and the engine
// keeps a per-class population count so a port with no candidate
// wave is skipped without scanning at all. The counts are pure
// bookkeeping over the same state transitions the original scan
// performed, so issue order — and therefore the cycle count — is
// unchanged.
const (
	clsVector  uint8 = iota // VALU / LDS
	clsMemory               // load / store
	clsScalar               // SALU
	clsBarrier              // at a barrier instruction, not yet parked
	clsEnd                  // at the end marker, waiting for loads
	clsBlocked              // parked at a barrier, or retired
	numClasses
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

	// classOf/depOf mirror prog.Body per instruction index; ready
	// counts waves per class (rebuilt at the start of every run).
	classOf []uint8
	depOf   []bool
	ready   [numClasses]int32

	// Load completions are FIFO because latency is constant. loadHead
	// indexes the next un-retired completion; consuming by advancing
	// the head instead of reslicing keeps the buffer reusable.
	loadDone []loadCompletion
	loadHead int

	// barrier bookkeeping per resident workgroup.
	arrived []int

	policy SchedPolicy

	cycle int64
}

type pipeWave struct {
	wg        int   // resident workgroup index
	instr     int   // index into prog.Body
	remaining int   // repetitions left of the current instruction
	loads     int   // outstanding loads
	cls       uint8 // class of Body[instr], clsBlocked when parked/done
	dep       bool  // Body[instr].DependsOnLoad
	atBarrier bool
	done      bool
}

type loadCompletion struct {
	cycle int64
	wave  int
}

// SimulatePipeline runs the execution-driven engine for one kernel on
// one configuration. Use for validation; cost is
// O(resident waves x dynamic instructions) cycles per launch batch.
// For whole-row evaluation, Prepare once and call EvalPipeline per
// config: the resident-set simulation is memoized on its quantized
// inputs, which collapses most of a row onto a few cycle runs.
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
// on one CU, cycle by cycle, and returns the cycles to drain them
// all, or the budget's error if it expires first. The program must
// already be validated. p is reset completely before use, so callers
// may hand in a reused scratch pipeline — including one a cut-off run
// left mid-simulation.
func runResidentSet(p *cuPipeline, bud *budget, prog *isa.Program, wgs, wavesPerWG int, latencyCycles int64, policy SchedPolicy) (int64, error) {
	p.prog = prog
	p.wavesPerWG = wavesPerWG
	p.policy = policy
	p.cycle = 0
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
	p.ready = [numClasses]int32{}
	p.waves = p.waves[:0]
	for wg := 0; wg < wgs; wg++ {
		for i := 0; i < wavesPerWG; i++ {
			p.waves = append(p.waves, pipeWave{
				wg:        wg,
				remaining: body[0].Count,
				cls:       p.classOf[0],
				dep:       p.depOf[0],
			})
		}
	}
	p.ready[p.classOf[0]] = int32(len(p.waves))

	live := len(p.waves)
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
			p.waves[p.loadDone[p.loadHead].wave].loads--
			p.loadHead++
		}

		issued := false
		// One vector (VALU/LDS), one memory (load/store), one scalar
		// issue per cycle, each from any ready wave, round-robin.
		if w := p.pickReady(&rrVec, clsVector); w >= 0 {
			p.step(w)
			issued = true
		}
		if w := p.pickReady(&rrMem, clsMemory); w >= 0 {
			wv := &p.waves[w]
			if p.prog.Body[wv.instr].Op == isa.OpLoad {
				wv.loads++
				p.loadDone = append(p.loadDone, loadCompletion{cycle: p.cycle + latencyCycles, wave: w})
			}
			p.step(w)
			issued = true
		}
		if w := p.pickReady(&rrScalar, clsScalar); w >= 0 {
			p.step(w)
			issued = true
		}
		// Non-port instructions: barriers and ends resolve without an
		// issue slot. The scan runs only while some wave is actually
		// sitting at one (the counts make the common all-compute cycle
		// skip it entirely).
		if p.ready[clsBarrier]+p.ready[clsEnd] > 0 {
			for w := range p.waves {
				wv := &p.waves[w]
				switch wv.cls {
				case clsBarrier:
					wv.atBarrier = true
					p.ready[clsBarrier]--
					p.ready[clsBlocked]++
					wv.cls = clsBlocked
					p.arrived[wv.wg]++
					if p.arrived[wv.wg] == p.wavesPerWG {
						p.releaseBarrier(wv.wg)
					}
					issued = true
				case clsEnd:
					if wv.loads == 0 {
						wv.done = true
						p.ready[clsEnd]--
						p.ready[clsBlocked]++
						wv.cls = clsBlocked
						live--
						issued = true
					}
				}
			}
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

// pickReady returns the index of the next wave whose current
// instruction matches the port class and is ready to issue, or -1.
// Under RoundRobin the scan rotates from *rr; under GreedyThenOldest
// it always starts from wave 0 (oldest first, sticking with a wave
// until it stalls). Parked and retired waves carry clsBlocked, so
// the cached class is the whole eligibility check bar the load
// dependence.
func (p *cuPipeline) pickReady(rr *int, want uint8) int {
	if p.ready[want] == 0 {
		return -1
	}
	waves := p.waves
	n := len(waves)
	start := *rr
	if p.policy == GreedyThenOldest {
		start = 0
	}
	for i := 0; i < n; i++ {
		w := start + i
		if w >= n {
			w -= n
		}
		wv := &waves[w]
		if wv.cls != want || (wv.dep && wv.loads > 0) {
			continue
		}
		if p.policy == RoundRobin {
			*rr = w + 1
			if *rr == n {
				*rr = 0
			}
		}
		return w
	}
	return -1
}

// step consumes one repetition of wave w's current instruction and
// keeps the cached class, dependence flag and class counts in sync
// when the wave moves on to the next one.
func (p *cuPipeline) step(w int) {
	wv := &p.waves[w]
	wv.remaining--
	if wv.remaining != 0 {
		return
	}
	wv.instr++
	if wv.instr < len(p.prog.Body) {
		wv.remaining = p.prog.Body[wv.instr].Count
		cls := p.classOf[wv.instr]
		p.ready[wv.cls]--
		p.ready[cls]++
		wv.cls = cls
		wv.dep = p.depOf[wv.instr]
	}
}

// releaseBarrier wakes every wave of a workgroup waiting at a barrier
// and advances them past it.
func (p *cuPipeline) releaseBarrier(wg int) {
	p.arrived[wg] = 0
	for w := range p.waves {
		wv := &p.waves[w]
		if wv.wg == wg && wv.atBarrier {
			wv.atBarrier = false
			// Un-park onto the barrier instruction before stepping so a
			// multi-repetition barrier re-arrives exactly as an
			// uncached scan of Body would.
			p.ready[clsBlocked]--
			p.ready[clsBarrier]++
			wv.cls = clsBarrier
			p.step(w)
		}
	}
}
