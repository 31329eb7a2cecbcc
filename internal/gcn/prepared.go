package gcn

import (
	"context"
	"fmt"
	"time"

	"gpuscale/internal/hw"
	"gpuscale/internal/isa"
	"gpuscale/internal/kernel"
	"gpuscale/internal/memory"
)

// The two-phase evaluation pipeline. The paper's artifact is a
// 267-kernel x 891-configuration matrix, and everything a kernel
// needs that does not depend on the configuration — validation, ISA
// lowering, derived launch geometry, demand factors — is identical
// across a row. Prepare hoists all of it to once per kernel;
// (*Prepared).Eval* then evaluates one configuration using the
// prepared state, two memos keyed on each sub-computation's true
// inputs, and reusable scratch arenas for the event-driven engines.
//
// The legacy per-cell entry points (Simulate, SimulateWave,
// SimulatePipeline, SimulateDetailed) are thin wrappers that prepare
// a fresh kernel per call, so both paths run the same core code and
// agree bit for bit.

// PreparedStats counts the memoization behaviour of one prepared
// kernel: how often the resident-set cycle simulation and the cache
// hit-rate estimate were served from their memos (hits) versus
// computed (misses).
type PreparedStats struct {
	ResidentSetHits, ResidentSetMisses int
	HitRateHits, HitRateMisses         int
}

// hrKey is the full input of memory.EstimateHitRatesL2 beyond the
// kernel itself.
type hrKey struct {
	resident, cus, l2Bytes int
}

// rsKey is the full input of the resident-set cycle simulation beyond
// the lowered program, which is fixed per kernel. Latency is
// quantized to integer cycles before it gets here, so most of a row's
// configurations collapse onto a handful of keys.
type rsKey struct {
	wgs, wavesPerWG int
	latencyCycles   int64
	policy          SchedPolicy
}

// Prepared is the per-kernel half of the pipeline: one validated
// kernel with every config-independent quantity computed, plus the
// memos and scratch its evaluations share. A Prepared reuses internal
// state across Eval* calls and is NOT safe for concurrent use; give
// each worker its own.
type Prepared struct {
	k   *kernel.Kernel
	der kernel.Derived

	// occWGs is the resident-workgroup capacity of one CU; Prepare
	// guarantees it is at least 1.
	occWGs int

	// Demand factors, kept separate so per-config recombination
	// reproduces newDemand's original expression order bit for bit.
	issueInstr      float64
	barrierIssue    float64
	barrierConc     float64
	accessesPerWG   float64
	transBytesPerWG float64
	flopsPerWG      float64

	// prog is the lowered instruction stream, built lazily on the
	// first pipeline evaluation; the other engines never need it.
	prog *isa.Program

	hrMemo map[hrKey]memory.HitRates
	rsMemo map[rsKey]int64
	// hrByCU is the dense fast path of the hit-rate memo for the
	// common key shape (resident == occWGs, stock L2 capacity): the
	// CU count is small and bounded, so an array lookup replaces map
	// hashing in the innermost per-cell path.
	hrByCU [hw.MaxCUs + 1]memory.HitRates
	hrSeen [hw.MaxCUs + 1]bool
	// hrLast short-circuits the map for keys outside the dense shape
	// (tail batches): a sweep row holds the CU axis constant across
	// long runs of configs, so the previous tail key almost always
	// repeats.
	hrLast   hrKey
	hrLastV  memory.HitRates
	hrLastOK bool
	stats    PreparedStats

	// bud is the row's cooperative supervision (nil: none).
	bud *budget

	wave *waveScratch
	pipe *cuPipeline
	det  *detailedScratch
}

// Prepare validates a kernel and hoists every config-independent
// derived quantity. It returns the kernel's validation error, or
// ErrDoesNotFit when a single workgroup exceeds one CU — both are
// row-level conditions: no configuration can change them.
func Prepare(k *kernel.Kernel) (*Prepared, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	der := k.Derive()
	if der.WorkgroupsPerCU == 0 {
		return nil, fmt.Errorf("%w: %s", ErrDoesNotFit, k.Name)
	}
	w := der.WavesPerWG
	return &Prepared{
		k:               k,
		der:             der,
		occWGs:          der.WorkgroupsPerCU,
		issueInstr:      float64(k.VALUPerWave+k.LDSOpsPerWave) * float64(w),
		barrierIssue:    barrierIssueFactor(k),
		barrierConc:     barrierConcurrencyFactor(k),
		accessesPerWG:   float64(der.MemAccessesPerWave * w),
		transBytesPerWG: float64(der.TransactionBytesPerWave * int64(w)),
		flopsPerWG:      der.FlopsPerWave * float64(w),
	}, nil
}

// Kernel returns the prepared kernel. Treat it as immutable for the
// Prepared's lifetime.
func (p *Prepared) Kernel() *kernel.Kernel { return p.k }

// Stats returns the memoization counters accumulated so far.
func (p *Prepared) Stats() PreparedStats { return p.stats }

// demandFor recombines the prepared factors with one configuration's
// clock. The issue-time expression mirrors newDemand's association
// order exactly ((instr * cycle) * barrier) so results stay
// bit-identical to the historical per-cell computation.
func (p *Prepared) demandFor(cfg hw.Config) demand {
	return demand{
		wavesPerWG:      p.der.WavesPerWG,
		issueNSPerWG:    p.issueInstr * cfg.CoreCycleNS() * p.barrierIssue,
		accessesPerWG:   p.accessesPerWG,
		transBytesPerWG: p.transBytesPerWG,
		flopsPerWG:      p.flopsPerWG,
	}
}

// hitRates memoizes memory.EstimateHitRatesL2 on its full input
// tuple; across a row only a handful of (residency, CU, L2) triples
// occur.
func (p *Prepared) hitRates(resident, cus, l2Bytes int) memory.HitRates {
	if resident == p.occWGs && l2Bytes == hw.L2Bytes && cus >= 1 && cus <= hw.MaxCUs {
		if p.hrSeen[cus] {
			p.stats.HitRateHits++
			return p.hrByCU[cus]
		}
		hr := memory.EstimateHitRatesL2(p.k, resident, cus, l2Bytes)
		p.hrByCU[cus] = hr
		p.hrSeen[cus] = true
		p.stats.HitRateMisses++
		return hr
	}
	key := hrKey{resident, cus, l2Bytes}
	if p.hrLastOK && key == p.hrLast {
		p.stats.HitRateHits++
		return p.hrLastV
	}
	if hr, ok := p.hrMemo[key]; ok {
		p.stats.HitRateHits++
		p.hrLast, p.hrLastV, p.hrLastOK = key, hr, true
		return hr
	}
	hr := memory.EstimateHitRatesL2(p.k, resident, cus, l2Bytes)
	if p.hrMemo == nil {
		p.hrMemo = make(map[hrKey]memory.HitRates, 64)
	}
	p.hrMemo[key] = hr
	p.hrLast, p.hrLastV, p.hrLastOK = key, hr, true
	p.stats.HitRateMisses++
	return hr
}

// program lowers the kernel on first use and caches the result.
func (p *Prepared) program() (*isa.Program, error) {
	if p.prog == nil {
		prog, err := isa.Lower(p.k)
		if err != nil {
			return nil, err
		}
		p.prog = prog
	}
	return p.prog, nil
}

// residentSetCycles memoizes the cycle-level resident-set simulation
// on its full input tuple (the program is fixed per kernel).
func (p *Prepared) residentSetCycles(prog *isa.Program, wgs, wavesPerWG int, latencyCycles int64, policy SchedPolicy) (int64, error) {
	key := rsKey{wgs: wgs, wavesPerWG: wavesPerWG, latencyCycles: latencyCycles, policy: policy}
	if c, ok := p.rsMemo[key]; ok {
		p.stats.ResidentSetHits++
		return c, nil
	}
	if p.pipe == nil {
		p.pipe = &cuPipeline{}
	}
	c, err := runResidentSet(p.pipe, p.bud, prog, wgs, wavesPerWG, latencyCycles, policy)
	if err != nil {
		return 0, err
	}
	if p.rsMemo == nil {
		p.rsMemo = make(map[rsKey]int64, 16)
	}
	p.rsMemo[key] = c
	p.stats.ResidentSetMisses++
	return c, nil
}

// PreparedRow is one kernel prepared for a row of evaluations on one
// engine. Its EvalBatch is the only way a sweep evaluates a cell: the
// whole config axis in one call, and single cells (retries) as
// one-element batches. Like Prepared, a PreparedRow reuses internal
// scratch and is NOT safe for concurrent use.
type PreparedRow interface {
	BatchRow
	// Stats reports the memoization counters accumulated so far.
	Stats() PreparedStats
	// SetBudget arms cooperative supervision for later EvalBatch
	// calls: once ctx ends, the cell in flight and every cell after it
	// fail with ctx.Err(); a cell still running perCell after it began
	// fails with ErrSimTimeout (perCell <= 0: no limit). Wrappers
	// forward it to the row they wrap.
	SetBudget(ctx context.Context, perCell time.Duration)
}

// RowEngine is the row-granular form of an engine: one PrepareRow per
// kernel, then evaluations that share prepared state. Wrappers (fault
// injection, instrumentation) interpose at this seam.
type RowEngine interface {
	// PrepareRow validates the kernel and hoists every
	// config-independent quantity, returning the row evaluator.
	PrepareRow(k *kernel.Kernel) (PreparedRow, error)
}

// Row engines for the four simulators. Every prepared row also
// implements BatchRow; the round engine additionally routes batches
// through its columnar evaluator.
var (
	RoundRow    RowEngine = rowEngine{eval: (*Prepared).EvalRound, batch: (*Prepared).EvalRoundBatch}
	WaveRow     RowEngine = rowEngine{eval: (*Prepared).EvalWave}
	PipelineRow RowEngine = rowEngine{eval: (*Prepared).EvalPipeline}
	DetailedRow RowEngine = rowEngine{eval: (*Prepared).EvalDetailed}
)

type rowEngine struct {
	eval  func(*Prepared, hw.Config) (Result, error)
	batch func(*Prepared, []hw.Config, []Result) error
}

func (e rowEngine) PrepareRow(k *kernel.Kernel) (PreparedRow, error) {
	p, err := Prepare(k)
	if err != nil {
		return nil, err
	}
	return preparedRow{p: p, eval: e.eval, batch: e.batch}, nil
}

type preparedRow struct {
	p     *Prepared
	eval  func(*Prepared, hw.Config) (Result, error)
	batch func(*Prepared, []hw.Config, []Result) error
}

func (r preparedRow) Stats() PreparedStats { return r.p.Stats() }

func (r preparedRow) SetBudget(ctx context.Context, perCell time.Duration) {
	r.p.bud = nil
	if ctx.Done() != nil || perCell > 0 {
		r.p.bud = &budget{ctx: ctx, perCell: perCell}
	}
}

// growF returns a zeroed float64 slice of length n, reusing capacity.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growI returns a zeroed int slice of length n, reusing capacity.
func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
