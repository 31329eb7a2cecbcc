package gcn

import (
	"fmt"
	"math"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/memory"
)

// wgState tracks one in-flight workgroup in the detailed engine.
type wgState struct {
	issueRem  float64 // CU-exclusive issue nanoseconds remaining
	accessRem float64 // memory accesses remaining
}

func (w *wgState) done() bool {
	return w.issueRem <= 1e-9 && w.accessRem <= 1e-9
}

// cuState is one compute unit with its resident workgroups.
type cuState struct {
	resident []*wgState
}

// cuRates is one CU's drain rates for a quantum.
type cuRates struct {
	computePerWG float64 // issue-ns drained per ns per WG
	accessPerWG  float64 // accesses drained per ns per WG
}

// detailedScratch holds the detailed engine's reusable buffers: the
// CU array (whose resident slices keep their capacity), a fixed arena
// of workgroup states (resident lists hold pointers into it), and the
// per-quantum rate buffer.
type detailedScratch struct {
	cus   []cuState
	wgs   []wgState
	rates []cuRates
}

// SimulateDetailed runs the continuous-dispatch, time-quantum engine.
// It models each workgroup as a fluid entity draining compute (issue
// slots) and memory (latency- and bandwidth-capped accesses)
// concurrently, dispatching a queued workgroup the moment a slot
// frees. Compared with Simulate it captures dispatch pipelining,
// inter-CU imbalance, and tail drain exactly, at O(workgroups x
// residency) cost — use it for validation, not for the 237k-run
// sweep. For whole-row evaluation, Prepare once and call EvalDetailed
// per config.
func SimulateDetailed(k *kernel.Kernel, cfg hw.Config) (Result, error) {
	p, err := Prepare(k)
	if err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return p.EvalDetailed(cfg)
}

// EvalDetailed runs the detailed engine on one already-validated
// configuration, reusing the prepared scratch buffers.
func (p *Prepared) EvalDetailed(cfg hw.Config) (Result, error) {
	k := p.k
	occWGs := p.occWGs
	d := p.demandFor(cfg)
	hier := memory.NewHierarchy(cfg)
	effBW := hier.EffectiveBandwidthGBs(k.Mem.Pattern)
	l2BW := l2BandwidthGBs(cfg)
	l2Bytes := cfg.L2CapacityBytes()
	bytesPerAccess := 0.0
	if d.accessesPerWG > 0 {
		bytesPerAccess = d.transBytesPerWG / d.accessesPerWG
	}
	concPerWave := p.der.EffectiveMLP * p.barrierConc

	s := p.det
	if s == nil {
		s = &detailedScratch{}
		p.det = s
	}
	if cap(s.cus) < cfg.CUs {
		s.cus = make([]cuState, cfg.CUs)
	} else {
		s.cus = s.cus[:cfg.CUs]
	}
	cus := s.cus
	for i := range cus {
		cus[i].resident = cus[i].resident[:0]
	}
	if cap(s.wgs) < k.Workgroups {
		s.wgs = make([]wgState, k.Workgroups)
	} else {
		s.wgs = s.wgs[:k.Workgroups]
	}
	if cap(s.rates) < len(cus) {
		s.rates = make([]cuRates, len(cus))
	} else {
		s.rates = s.rates[:len(cus)]
	}
	rates := s.rates

	pending := k.Workgroups
	inFlight := 0
	nextWG := 0

	dispatch := func() {
		for pending > 0 {
			// Fill the least-loaded CU first, respecting occupancy.
			best, bestLoad := -1, occWGs
			for i := range cus {
				if l := len(cus[i].resident); l < bestLoad {
					best, bestLoad = i, l
				}
			}
			if best < 0 {
				return
			}
			wg := &s.wgs[nextWG]
			nextWG++
			*wg = wgState{
				issueRem:  d.issueNSPerWG,
				accessRem: d.accessesPerWG,
			}
			cus[best].resident = append(cus[best].resident, wg)
			pending--
			inFlight++
		}
	}
	dispatch()

	var now float64
	util := 0.0
	var boundNS boundTimes
	var lastHR memory.HitRates

	for quanta := 1; inFlight > 0; quanta++ {
		if quanta&(budgetEvery-1) == 0 {
			if err := p.bud.check(); err != nil {
				return Result{}, err
			}
		}
		// Per-CU rates for this quantum; the buffer is reused across
		// quanta, so clear it first (idle CUs must stay at zero).
		for i := range rates {
			rates[i] = cuRates{}
		}
		active := countActive(cus)
		demandBytes := 0.0
		for i := range cus {
			q := len(cus[i].resident)
			if q == 0 {
				continue
			}
			hr := p.hitRates(q, active, l2Bytes)
			lastHR = hr
			avgLat := hier.AvgAccessLatencyNS(hr, util)
			r := cuRates{computePerWG: 1 / float64(q)}
			if d.accessesPerWG > 0 {
				conc := float64(q*d.wavesPerWG) * concPerWave
				if conc < 1 {
					conc = 1
				}
				r.accessPerWG = conc / avgLat / float64(q)
				demandBytes += r.accessPerWG * float64(q) * bytesPerAccess * (1 - hr.L1)
			}
			rates[i] = r
		}

		// Global bandwidth throttling: scale every CU's access rate by
		// the tighter of the L2 and DRAM constraints.
		scale := 1.0
		quantumBound := BoundLatency
		hrNow := lastHR
		dramDemand := demandBytes * (1 - hrNow.L2)
		if demandBytes > 0 {
			if s := l2BW / demandBytes; s < scale {
				scale, quantumBound = s, BoundL2
			}
			if dramDemand > 0 {
				if s := effBW / dramDemand; s < scale {
					scale, quantumBound = s, BoundDRAM
				}
			}
		}

		// Choose the quantum: the earliest time any workgroup exhausts
		// either resource at current rates.
		dt := math.Inf(1)
		for i := range cus {
			for _, wg := range cus[i].resident {
				if wg.issueRem > 1e-9 && rates[i].computePerWG > 0 {
					if t := wg.issueRem / rates[i].computePerWG; t < dt {
						dt = t
					}
				}
				if wg.accessRem > 1e-9 && rates[i].accessPerWG > 0 {
					if t := wg.accessRem / (rates[i].accessPerWG * scale); t < dt {
						dt = t
					}
				}
			}
		}
		if math.IsInf(dt, 1) {
			// No drainable work should be impossible; bail defensively
			// rather than spin.
			return Result{}, fmt.Errorf("gcn: detailed engine stalled at t=%g on %s", now, k.Name)
		}
		if dt < 1e-6 {
			dt = 1e-6
		}

		// Advance all workgroups by dt.
		computeActive := false
		for i := range cus {
			kept := cus[i].resident[:0]
			for _, wg := range cus[i].resident {
				if wg.issueRem > 1e-9 {
					wg.issueRem -= rates[i].computePerWG * dt
					computeActive = true
				}
				if wg.accessRem > 1e-9 {
					wg.accessRem -= rates[i].accessPerWG * scale * dt
				}
				if wg.done() {
					inFlight--
				} else {
					kept = append(kept, wg)
				}
			}
			cus[i].resident = kept
		}
		now += dt
		if scale >= 1 && computeActive {
			quantumBound = BoundCompute
		}
		boundNS[quantumBound] += dt

		// Lagged utilisation estimate for the next quantum's latency.
		if effBW > 0 {
			util = clampUnit(dramDemand * scale / effBW)
		}
		dispatch()
	}

	total := now + k.LaunchOverheadNS
	dominant, share := dominantBound(&boundNS, k.LaunchOverheadNS, total)
	transBytes := d.transBytesPerWG * float64(k.Workgroups)
	dramBytes := transBytes * (1 - lastHR.L1) * (1 - lastHR.L2)
	return Result{
		TimeNS:         total,
		KernelNS:       now,
		Throughput:     float64(p.der.TotalWorkItems) / total,
		AchievedGFLOPS: d.flopsPerWG * float64(k.Workgroups) / total,
		AchievedGBs:    dramBytes / total,
		HitRates:       lastHR,
		OccupancyWaves: p.der.OccupancyWavesPerCU,
		Bound:          dominant,
		BoundShare:     share,
	}, nil
}

func countActive(cus []cuState) int {
	n := 0
	for i := range cus {
		if len(cus[i].resident) > 0 {
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return n
}

func clampUnit(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
