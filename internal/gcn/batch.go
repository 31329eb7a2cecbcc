package gcn

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"

	"gpuscale/internal/hw"
	"gpuscale/internal/memory"
)

// Batched config-axis evaluation. The taxonomy sweep's unit of work is
// one kernel row: the same prepared kernel evaluated against every
// configuration on the axis. The per-cell entry points re-derive the
// same branchy quantities for every config even though most of them
// vary along only one dimension of the grid: occupancy partitioning
// and hit rates depend only on the CU count (and L2 capacity), issue
// time and the access-latency curve only on the core clock, and only
// the DRAM-bandwidth terms move with the memory clock. EvalRoundBatch
// exploits that structure: one fused pass walks the axis re-deriving
// the CU-block, (CU, core) sub-block, and memory-clock terms exactly
// when their inputs change, so the per-cell residue is just the DRAM
// service time, the fixed-point solve, and bound selection.
//
// Bit-identity with the scalar path is load-bearing (the sweep's
// resume/merge machinery compares matrices byte for byte), so every
// hoisted quantity preserves the scalar path's exact floating-point
// expression tree: hoisting only ever names a subexpression whose
// operands are constant over the hoisted scope, never re-associates
// one. Where an expression was restructured for speed (the folded
// latency term, reciprocal multiplies for the DRAM service time and
// the result assembly), the scalar path was restructured identically,
// so the two trees are still the same tree.
// The equivalence suite in batch_test.go enforces this against
// randomized kernels and config arrays, including arrays that are not
// grid-ordered (every cell re-derives its block when the CU count or
// clock changes, so ordering affects speed, never values).

// ErrBatchPanic marks a per-cell engine panic that was isolated inside
// a batch evaluation: the cell's error wraps it, and the remaining
// cells of the batch still evaluate. The sweep maps it onto its own
// engine-panic classification so batched and per-cell rows report
// identical statuses.
var ErrBatchPanic = errors.New("gcn: engine panicked during batch evaluation")

// BatchRow evaluates a prepared kernel over a slice of the config
// axis in one call. Implementations must fill out[i]/errs[i] for every
// i < len(cfgs); a non-nil return value is a row-level failure
// (undersized buffers, a wrapper that cannot batch) after which the
// per-cell contents are unspecified and the caller re-evaluates the
// cells one by one. Configurations must already be validated.
type BatchRow interface {
	EvalBatch(cfgs []hw.Config, out []Result, errs []error) error
}

// roundShape holds one batch shape (full-residency or tail) with its
// hoisted terms. Fields split by the scope they are constant over:
// block fields change only with the CU count / L2 capacity, sub-block
// fields also with the core clock. The remaining per-cell input is the
// DRAM service time.
type roundShape struct {
	present bool
	qmax    int

	// Block scope (CU count + L2 capacity).
	hr                 memory.HitRates
	l2Bytes, dramBytes float64
	hasAcc             bool
	acc, conc, kl      float64
	c, c4, cqf         float64 // latency-curve c, 4*c, (4*c)*MaxQueueFactor

	// Sub-block scope (+ core clock).
	computeT, l2T float64
	am            memory.AccessModel
	a, a2         float64 // kl*UnloadedNS() and its square
}

// timeAt mirrors batchTime's post-hit-rate logic for one batch shape
// at one configuration's DRAM service time. Every expression matches
// the scalar path's tree with block/sub-block constants substituted by
// name.
func (bs *roundShape) timeAt(dramT float64) (float64, Bound) {
	latT := 0.0
	if bs.hasAcc {
		floor := fmax(fmax(bs.computeT, bs.l2T), dramT)
		latT = latencyTermNS(bs.a, bs.c, dramT, floor)
		if latT > floor {
			const qf = memory.MaxQueueFactor
			root := (bs.a + dramT + math.Sqrt((bs.a-dramT)*(bs.a-dramT)+bs.c4*dramT)) / 2
			if root < dramT*qf/(qf-1) {
				root = (bs.a + math.Sqrt(bs.a2+bs.cqf*dramT)) / 2
			}
			if total := fmax(root, floor); total != floor {
				latT = latencyTermNS(bs.a, bs.c, dramT, total)
			}
		}
	}
	t := bs.computeT
	b := BoundCompute
	if dramT > t {
		t, b = dramT, BoundDRAM
	}
	if bs.l2T > t {
		t, b = bs.l2T, BoundL2
	}
	if latT > t {
		t, b = latT, BoundLatency
	}
	return t, b
}

// blockUpdate recomputes the shape's CU-block terms for totalWGs
// workgroups at qmax residency on activeCUs compute units.
func (p *Prepared) blockUpdate(bs *roundShape, qmax, activeCUs, totalWGs, l2Cap int) {
	bs.present = true
	bs.qmax = qmax
	bs.hr = p.hitRates(qmax, activeCUs, l2Cap)
	bs.l2Bytes = float64(totalWGs) * p.transBytesPerWG * (1 - bs.hr.L1)
	bs.dramBytes = bs.l2Bytes * (1 - bs.hr.L2)
	bs.acc = float64(qmax) * p.accessesPerWG
	bs.hasAcc = bs.acc > 0
	if bs.hasAcc {
		conc := float64(qmax*p.der.WavesPerWG) * p.der.EffectiveMLP * p.barrierConc
		if conc < 1 {
			conc = 1
		}
		bs.conc = conc
		bs.kl = bs.acc / conc
		bs.c = bs.kl * (1 - bs.hr.L1) * (1 - bs.hr.L2) * memory.DRAMDeviceNS / 2
		bs.c4 = 4 * bs.c
		bs.cqf = bs.c4 * memory.MaxQueueFactor
	}
}

// subUpdate recomputes the shape's (CU, core) sub-block terms.
func (bs *roundShape) subUpdate(hier memory.Hierarchy, issueNS, l2BW float64) {
	bs.computeT = float64(bs.qmax) * issueNS
	bs.l2T = 0
	if bs.l2Bytes > 0 {
		bs.l2T = bs.l2Bytes / l2BW
	}
	if bs.hasAcc {
		bs.am = hier.AccessModel(bs.hr)
		bs.a = bs.kl * bs.am.UnloadedNS()
		bs.a2 = bs.a * bs.a
	}
}

// EvalRoundBatch evaluates the round engine over a whole config axis
// in one call, filling out[i] for each cfgs[i]. Configurations must
// already be validated. Results are bit-identical to calling EvalRound
// per config; only a row-level problem (an undersized output buffer)
// returns an error. Like Eval, it reuses internal scratch and is NOT
// safe for concurrent use.
func (p *Prepared) EvalRoundBatch(cfgs []hw.Config, out []Result) error {
	if len(out) < len(cfgs) {
		return fmt.Errorf("gcn: EvalRoundBatch: %d results for %d configs", len(out), len(cfgs))
	}
	if len(cfgs) == 0 {
		return nil
	}
	k := p.k

	// Kernel-scope constants of the result assembly.
	transBytes := p.transBytesPerWG * float64(k.Workgroups)
	flopsKernel := p.flopsPerWG * float64(k.Workgroups)
	workItems := float64(p.der.TotalWorkItems)
	launch := k.LaunchOverheadNS
	occWaves := p.der.OccupancyWavesPerCU
	patEff := memory.PatternEfficiency(k.Mem.Pattern)

	// One fused pass over the axis, re-deriving each term exactly when
	// its clock changes: block terms with the CU count / L2 capacity,
	// sub-block terms (and the two core-clock demand terms) with the
	// core clock, the reciprocal DRAM bandwidth with the memory clock.
	// On the grid order (memory clock fastest) that is 1 block per CU
	// value and 1 sub-block per (CU, core). Every derivation preserves
	// the scalar path's expression tree — demandFor / l2BandwidthGBs /
	// Hierarchy.EffectiveBandwidthGBs — and reuse hands back the same
	// bits because the inputs are the same.
	var full, tail roundShape
	var nFull float64
	var steady memory.HitRates
	var resDram float64
	var issueV, l2bwV, invEff float64
	lastCUs, lastL2 := -1, -1
	lastCore, lastMem := math.Inf(-1), math.Inf(-1)
	for i := range cfgs {
		cfg := &cfgs[i]
		if cfg.CUs != lastCUs || cfg.L2Override != lastL2 {
			lastCUs, lastL2 = cfg.CUs, cfg.L2Override
			lastCore = math.Inf(-1)
			l2Cap := cfg.L2CapacityBytes()
			remaining := k.Workgroups
			fullBatch := cfg.CUs * p.occWGs
			full.present = false
			if nf := remaining / fullBatch; nf > 0 {
				p.blockUpdate(&full, p.occWGs, cfg.CUs, fullBatch, l2Cap)
				nFull = float64(nf)
				remaining -= nf * fullBatch
			}
			tail.present = false
			if remaining > 0 {
				activeCUs := remaining
				if activeCUs > cfg.CUs {
					activeCUs = cfg.CUs
				}
				qmax := (remaining + activeCUs - 1) / activeCUs
				p.blockUpdate(&tail, qmax, activeCUs, remaining, l2Cap)
			}
			// Steady-state hit rates: the full batch's when one ran,
			// otherwise the tail's (same haveSteady rule as EvalRound).
			if full.present {
				steady = full.hr
			} else {
				steady = tail.hr
			}
			resDram = transBytes * (1 - steady.L1) * (1 - steady.L2)
		}
		if cfg.CoreClockMHz != lastCore {
			lastCore = cfg.CoreClockMHz
			issueV = p.issueInstr * cfg.CoreCycleNS() * p.barrierIssue
			l2bwV = L2BytesPerCoreCycle * cfg.CoreClockMHz / 1000
			hier := memory.NewHierarchy(*cfg)
			if full.present {
				full.subUpdate(hier, issueV, l2bwV)
			}
			if tail.present {
				tail.subUpdate(hier, issueV, l2bwV)
			}
		}
		if cfg.MemClockMHz != lastMem {
			lastMem = cfg.MemClockMHz
			invEff = 1 / (cfg.PeakBandwidthGBs() * patEff)
		}

		kernelNS := 0.0
		var fullT, tailT float64
		var fullB, tailB Bound
		if full.present {
			dramT := 0.0
			if full.dramBytes > 0 {
				dramT = full.dramBytes * invEff
			}
			t, b := full.timeAt(dramT)
			fullT, fullB = nFull*t, b
			kernelNS += fullT
		}
		if tail.present {
			dramT := 0.0
			if tail.dramBytes > 0 {
				dramT = tail.dramBytes * invEff
			}
			t, b := tail.timeAt(dramT)
			tailT, tailB = t, b
			kernelNS += tailT
		}

		// Bound selection, replicating dominantBound over the two
		// contributions without materializing a boundTimes array:
		// ascending Bound order with a strict > comparison, so a tie
		// between distinct bounds goes to the lower index, equal bounds
		// sum in accumulation order, zero-time contributions never
		// displace the BoundCompute default, and launch overhead wins
		// only when strictly larger.
		domB, domT := BoundCompute, 0.0
		switch {
		case full.present && tail.present:
			if fullB == tailB {
				if s := fullT + tailT; s > 0 {
					domB, domT = fullB, s
				}
			} else {
				loB, loT, hiB, hiT := fullB, fullT, tailB, tailT
				if hiB < loB {
					loB, loT, hiB, hiT = tailB, tailT, fullB, fullT
				}
				if loT > 0 {
					domB, domT = loB, loT
				}
				if hiT > domT {
					domB, domT = hiB, hiT
				}
			}
		case full.present:
			if fullT > 0 {
				domB, domT = fullB, fullT
			}
		case tail.present:
			if tailT > 0 {
				domB, domT = tailB, tailT
			}
		}
		if launch > domT {
			domB, domT = BoundLaunch, launch
		}

		total := kernelNS + launch
		share := 0.0
		if total > 0 {
			share = domT / total
		}
		invTotal := 1 / total
		// Field-wise stores (every field is written) keep the wide
		// Result out of a stack temporary on this, the hottest store in
		// the sweep.
		o := &out[i]
		o.TimeNS = total
		o.KernelNS = kernelNS
		o.Throughput = workItems * invTotal
		o.AchievedGFLOPS = flopsKernel * invTotal
		o.AchievedGBs = resDram * invTotal
		o.HitRates = steady
		o.OccupancyWaves = occWaves
		o.Bound = domB
		o.BoundShare = share
	}
	return nil
}

// evalCell runs one cell of a batch with panic isolation, so a
// panicking cell poisons only its own slot. A cell cut off by its
// budget needs no cleanup: the memos only ever hold complete values (a
// hit rate is stored in one step, a resident-set simulation only once
// it finished), each a pure function of its key, and every engine
// resets its scratch before use.
func (p *Prepared) evalCell(eval func(*Prepared, hw.Config) (Result, error), cfg hw.Config) (res Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res = Result{}
			err = fmt.Errorf("%w: %v\n%s", ErrBatchPanic, rec, debug.Stack())
		}
	}()
	return eval(p, cfg)
}

// EvalBatch implements BatchRow for every engine's prepared row. The
// round engine dispatches to its columnar evaluator; the event-driven
// engines loop the per-cell evaluator with panic isolation under the
// row's budget, which still amortizes prepare, memo, and scratch reuse
// across the axis. Once the budget's context ends, the remaining cells
// are not started: they fail with the context's error.
func (r preparedRow) EvalBatch(cfgs []hw.Config, out []Result, errs []error) error {
	if len(out) < len(cfgs) || len(errs) < len(cfgs) {
		return fmt.Errorf("gcn: EvalBatch: %d configs, %d results, %d errors", len(cfgs), len(out), len(errs))
	}
	clear(errs[:len(cfgs)])
	if r.batch != nil {
		// The columnar evaluator has no per-cell failure modes, so errs
		// stays all-nil.
		return r.batch(r.p, cfgs, out)
	}
	for i := range cfgs {
		if err := r.p.bud.begin(); err != nil {
			out[i], errs[i] = Result{}, err
			continue
		}
		out[i], errs[i] = r.p.evalCell(r.eval, cfgs[i])
	}
	return nil
}
