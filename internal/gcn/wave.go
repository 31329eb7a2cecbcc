package gcn

import (
	"fmt"
	"math"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/memory"
)

// The wavefront-level engine: a classic discrete-event simulation in
// which each wavefront alternates compute segments and memory batches.
// Compute segments queue on their CU's issue port (one wave-instruction
// per cycle, FIFO-granted); memory batches queue on the shared L2 and
// DRAM service resources and then pay the pipeline latency. Workgroups
// dispatch wave-by-wave as occupancy slots free up.
//
// It is the highest-fidelity (and slowest) of the three engines and
// exists to validate the other two: per-wave interleaving, issue-port
// contention, and service-queue build-up are modelled explicitly
// rather than as steady-state bounds.
//
// The scheduler is a calendar queue (Brown, CACM 1988) keyed on cycle
// time rather than a comparison heap: events are spread over
// time-windowed buckets, so pushes and pops are O(1) on the workloads
// the engine sees instead of O(log n) with a cache-miss per heap
// level. Because (at, seq) is a strict total order on events, any
// correct priority queue pops them in exactly the same sequence, so
// the rewrite is bit-identical to the heap it replaced —
// wave_ref_test.go keeps the original heap implementation as the
// differential oracle that proves it.

// Event kinds, packed into the low bit of waveEvent.seqKind.
const (
	evComputeDone = 0
	evMemDone     = 1
)

// waveState tracks one in-flight wavefront. The segmentation terms
// that are identical across every wave of a launch (compute time per
// segment, per-batch L2/DRAM traffic) are hoisted to EvalWave locals
// — the same treatment the pipeline engine gives its per-instruction
// class terms — so per-wave state is three small integers.
type waveState struct {
	cu, wg   int32
	segsLeft int32
}

// waveEvent is one scheduled completion: 16 bytes, with the kind
// folded into the low bit of the push sequence number. seq is strictly
// increasing across pushes, so ordering by (at, seqKind) equals
// ordering by (at, seq) — the kind bit never decides.
type waveEvent struct {
	at      float64
	wave    int32  // index into waveScratch.waves
	seqKind uint32 // seq<<1 | kind
}

func waveEventBefore(a, b waveEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seqKind < b.seqKind
}

// calQueue is a calendar queue: a power-of-two array of buckets, each
// holding the events of every time window congruent to it (window =
// floor(at/width), bucket = window mod len). Buckets are kept in push
// order: pushes are a bare append and removals shift the tail down
// instead of swap-filling the hole. Push order implies seq order, so
// among equal-time events the first one a scan meets is the one the
// (at, seq) total order pops next — the min-scan therefore compares
// times alone, with first-match-wins, and never needs the tie-break
// field. That matters because the engine emits equal-time clusters
// (idle CUs run identical schedules, so every segment boundary
// completes once per CU); a two-field comparator pays its
// data-dependent second branch exactly on those clusters. Pops walk
// windows in order; after a full empty rotation a direct minimum
// search re-anchors the window cursor (the sparse-schedule fallback).
//
// The bucket minimum is the global minimum whenever it falls in the
// current (or an earlier) window: lower windows were drained before
// topIdx advanced, all current-window events share this bucket, and
// any later-year event in the bucket has a strictly larger time.
//
// Window membership is always computed as int64(at*invW), never by
// accumulating width, so push and pop can never disagree about which
// window an event belongs to (float accumulation drift would reorder
// events near window boundaries).
type calQueue struct {
	buckets [][]waveEvent
	heads   []int // per-bucket drained-prefix length
	mask    int
	invW    float64
	topIdx  int64 // current window number
	n       int
}

// reset prepares the queue for a run of events starting at time zero:
// nb buckets (power of two) of the given window width, reusing bucket
// capacity across evaluations.
func (q *calQueue) reset(nb int, width float64) {
	if cap(q.buckets) < nb {
		q.buckets = make([][]waveEvent, nb)
		q.heads = make([]int, nb)
	}
	q.buckets = q.buckets[:nb]
	q.heads = q.heads[:nb]
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
		q.heads[i] = 0
	}
	q.mask = nb - 1
	q.invW = 1 / width
	q.topIdx = 0
	q.n = 0
}

func (q *calQueue) push(e waveEvent) {
	win := int64(e.at * q.invW)
	b := &q.buckets[int(win)&q.mask]
	*b = append(*b, e)
	q.n++
}

// remove deletes element mi (an index into the live region) from
// bucket bi, preserving the relative order of the survivors — the
// push-order invariant the min-scan's first-match-wins rule rests on.
// A bucket usually drains front first, so the hot case is a head
// advance; removals from the middle shift the tail down. A bucket
// whose live region empties is rewound so its capacity is reused from
// the front.
func (q *calQueue) remove(bi, mi int) {
	s := q.buckets[bi]
	if h := q.heads[bi]; mi == h {
		q.heads[bi] = h + 1
	} else {
		copy(s[mi:], s[mi+1:])
		s = s[:len(s)-1]
		q.buckets[bi] = s
	}
	if q.heads[bi] == len(s) {
		q.buckets[bi] = s[:0]
		q.heads[bi] = 0
	}
	q.n--
}

// pop removes and returns the minimum event by (at, seqKind). The
// caller guarantees n > 0. Because (at, seqKind) is a strict total
// order, any correct implementation pops the same sequence, so pop
// order is independent of bucket layout. The strict < on times plus
// the push-order bucket invariant make the first minimal-time element
// the minimal-seq one too, so the scan never needs the tie-break
// field.
func (q *calQueue) pop() waveEvent {
	for scanned := 0; scanned <= q.mask; scanned++ {
		bi := int(q.topIdx) & q.mask
		if s := q.buckets[bi]; len(s) > q.heads[bi] {
			mi := q.heads[bi]
			m := s[mi].at
			for i := mi + 1; i < len(s); i++ {
				if at := s[i].at; at < m {
					mi, m = i, at
				}
			}
			if int64(m*q.invW) <= q.topIdx {
				e := s[mi]
				q.remove(bi, mi)
				return e
			}
		}
		q.topIdx++
	}
	// Every pending event lies beyond a full rotation: jump straight
	// to the earliest one. Equal times across buckets still need the
	// seq tie-break here, so this scan uses the full comparator.
	bi, mi := -1, 0
	var best waveEvent
	for i := range q.buckets {
		s := q.buckets[i]
		for j := q.heads[i]; j < len(s); j++ {
			if e := s[j]; bi < 0 || waveEventBefore(e, best) {
				bi, mi, best = i, j, e
			}
		}
	}
	q.remove(bi, mi)
	q.topIdx = int64(best.at * q.invW)
	return best
}

// waveScratch holds the wave engine's reusable per-row buffers: the
// calendar queue, the per-CU resource clocks, the per-workgroup
// wave countdowns (an indexed slice — workgroup IDs are dense), and a
// fixed arena of wave states (events hold indexes into it, so it is
// sized up front and never grown mid-run).
type waveScratch struct {
	cuIssueFree   []float64
	cuResidentWGs []int
	wgWavesLeft   []int32
	q             calQueue
	waves         []waveState
}

// waveSimLimits bounds the event engine so sweeps cannot accidentally
// run it on huge launches.
const maxWaveEvents = 50_000_000

// Calendar-queue sizing bounds: buckets cover the expected pending-
// event population (one pending event per in-flight wave) without the
// per-evaluation reset cost growing unbounded.
const (
	minWaveBuckets = 64
	maxWaveBuckets = 2048
)

// SimulateWave runs the wavefront-level event engine. Use it for
// validation on launches up to a few thousand workgroups; for sweeps
// use Simulate. For whole-row evaluation, Prepare once and call
// EvalWave per config (or EvalBatch on the row seam): the prepared
// path reuses the calendar queue, wave arena, and per-CU clocks
// across the row instead of reallocating them per cell.
func SimulateWave(k *kernel.Kernel, cfg hw.Config) (Result, error) {
	p, err := Prepare(k)
	if err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return p.EvalWave(cfg)
}

// EvalWave runs the wave engine on one already-validated
// configuration, reusing the prepared scratch buffers.
func (p *Prepared) EvalWave(cfg hw.Config) (Result, error) {
	k := p.k
	occWGs := p.occWGs
	d := p.demandFor(cfg)
	hier := memory.NewHierarchy(cfg)
	hr := p.hitRates(occWGs, cfg.CUs, cfg.L2CapacityBytes())
	effBW := hier.EffectiveBandwidthGBs(k.Mem.Pattern)
	l2BW := l2BandwidthGBs(cfg)

	// Per-wave segmentation: one memory batch of effMLP accesses per
	// segment, compute spread evenly between batches. All four terms
	// are identical for every wave of the launch, so they live here
	// rather than in the per-wave state.
	wavesPerWG := d.wavesPerWG
	accPerWave := d.accessesPerWG / float64(wavesPerWG)
	issuePerWave := d.issueNSPerWG / float64(wavesPerWG)
	segs := 1
	if accPerWave > 0 {
		segs = int(math.Ceil(accPerWave / p.der.EffectiveMLP))
	}
	transPerWave := d.transBytesPerWG / float64(wavesPerWG)
	l2PerBatch := transPerWave * (1 - hr.L1) / float64(segs)
	dramPerBatch := l2PerBatch * (1 - hr.L2)
	computeNSPerSeg := issuePerWave / float64(segs)
	l2Service := 0.0
	if l2PerBatch > 0 {
		l2Service = l2PerBatch / l2BW
	}
	dramService := 0.0
	if dramPerBatch > 0 && effBW > 0 {
		dramService = dramPerBatch / effBW
	}

	// Unloaded pipeline latency of one batch (requests overlap, so one
	// latency per batch, service time handled by the queues).
	batchLatency := hier.AvgAccessLatencyNS(hr, 0)

	totalWaves := p.der.TotalWaves
	if totalWaves > maxWaveEvents {
		// Each wave contributes at least one event, so the launch
		// cannot finish within the budget; fail before allocating.
		return Result{}, fmt.Errorf("gcn: wave engine exceeded %d events on %s (launch too large)",
			maxWaveEvents, k.Name)
	}

	// Resources, from the reusable scratch (reset covers dirty state
	// left by a previous eval, including one that returned an error).
	s := p.wave
	if s == nil {
		s = &waveScratch{}
		p.wave = s
	}
	s.cuIssueFree = growF(s.cuIssueFree, cfg.CUs)
	s.cuResidentWGs = growI(s.cuResidentWGs, cfg.CUs)
	if cap(s.wgWavesLeft) < k.Workgroups {
		s.wgWavesLeft = make([]int32, k.Workgroups)
	} else {
		// No zeroing: dispatch writes a workgroup's countdown before
		// any of its waves can retire.
		s.wgWavesLeft = s.wgWavesLeft[:k.Workgroups]
	}
	if cap(s.waves) < totalWaves {
		s.waves = make([]waveState, totalWaves)
	} else {
		s.waves = s.waves[:totalWaves]
	}

	// Calendar sizing. Pending events never exceed one per in-flight
	// wave, which occupancy bounds. The window width targets the
	// pending-event SPAN, not the makespan: at any instant the queue's
	// events live between now and the deepest resource backlog ahead —
	// one outstanding compute segment per resident wave on its CU's
	// issue port, one outstanding batch per resident wave on the shared
	// L2/DRAM queues — plus the pipeline latency every mem-done event
	// adds on top of its service grant. Spreading that span across the
	// buckets keeps each bucket at about two pending events and, more
	// importantly, keeps the whole span inside one rotation of the
	// bucket array. (A makespan/events width — the average event
	// spacing — underestimates the span whenever the batch latency
	// dwarfs a per-batch service time; the span then wraps the array
	// several times, every bucket accumulates events from several
	// window-years, and each pop's min-scan pays the overlap factor.)
	// Two events per bucket, not one: empty-bucket rotations cost a
	// random slice-header probe each, while one extra element in a
	// scan is a contiguous compare, so slightly denser buckets measure
	// faster than exactly-one occupancy.
	// Sizing affects only speed: window membership is consistent
	// between push and pop at any width, so the pop order — and
	// therefore the result — is width-independent.
	resident := cfg.CUs * occWGs * wavesPerWG
	if resident > totalWaves {
		resident = totalWaves
	}
	nb := minWaveBuckets
	for nb*2 < resident && nb < maxWaveBuckets {
		nb <<= 1
	}
	span := float64(occWGs*wavesPerWG) * computeNSPerSeg
	if t := float64(resident) * l2Service; t > span {
		span = t
	}
	if t := float64(resident) * dramService; t > span {
		span = t
	}
	span += batchLatency
	width := span / float64(nb)
	if !(width > 1e-300) || math.IsInf(width, 0) {
		width = 1
	}
	s.q.reset(nb, width)

	cuIssueFree := s.cuIssueFree
	cuResidentWGs := s.cuResidentWGs
	wgWavesLeft := s.wgWavesLeft
	waves := s.waves
	q := &s.q
	nextWave := int32(0)

	var l2Free, dramFree float64
	var dramBusyNS, l2BusyNS, issueBusyNS float64
	pendingWGs := k.Workgroups
	nextWG := 0
	var now float64
	seq := uint32(0)

	startWave := func(cu, wg int32, at float64) {
		w := nextWave
		nextWave++
		waves[w] = waveState{cu: cu, wg: wg, segsLeft: int32(segs)}
		// First phase: compute segment queued on the CU issue port.
		grant := fmax(at, cuIssueFree[cu])
		done := grant + computeNSPerSeg
		cuIssueFree[cu] = done
		issueBusyNS += computeNSPerSeg
		seq++
		q.push(waveEvent{at: done, wave: w, seqKind: seq<<1 | evComputeDone})
	}

	dispatch := func(at float64) {
		for pendingWGs > 0 {
			// Least-loaded CU with a free workgroup slot.
			best, bestLoad := -1, occWGs
			for cu := 0; cu < cfg.CUs; cu++ {
				if cuResidentWGs[cu] < bestLoad {
					best, bestLoad = cu, cuResidentWGs[cu]
				}
			}
			if best < 0 {
				return
			}
			wg := nextWG
			nextWG++
			pendingWGs--
			cuResidentWGs[best]++
			wgWavesLeft[wg] = int32(wavesPerWG)
			for i := 0; i < wavesPerWG; i++ {
				startWave(int32(best), int32(wg), at)
			}
		}
	}
	dispatch(0)

	processed := 0
	for q.n > 0 {
		processed++
		if processed > maxWaveEvents {
			return Result{}, fmt.Errorf("gcn: wave engine exceeded %d events on %s (launch too large)",
				maxWaveEvents, k.Name)
		}
		if processed&(budgetEvery-1) == 0 {
			if err := p.bud.check(); err != nil {
				return Result{}, err
			}
		}
		ev := q.pop()
		now = ev.at
		w := &waves[ev.wave]
		if ev.seqKind&1 == evComputeDone {
			if accPerWave == 0 || w.segsLeft == 0 {
				// Pure-compute wave (or final trailing segment): done.
				wgWavesLeft[w.wg]--
				if wgWavesLeft[w.wg] == 0 {
					cuResidentWGs[w.cu]--
				}
				dispatch(now)
				continue
			}
			// Issue the memory batch: queue on L2 then DRAM service,
			// then pay the pipeline latency.
			w.segsLeft--
			start := now
			if l2PerBatch > 0 {
				grant := fmax(start, l2Free)
				l2Free = grant + l2Service
				l2BusyNS += l2Service
				start = l2Free
			}
			if dramPerBatch > 0 && effBW > 0 {
				grant := fmax(start, dramFree)
				dramFree = grant + dramService
				dramBusyNS += dramService
				start = dramFree
			}
			seq++
			q.push(waveEvent{at: start + batchLatency, wave: ev.wave, seqKind: seq<<1 | evMemDone})
		} else {
			if w.segsLeft == 0 {
				wgWavesLeft[w.wg]--
				if wgWavesLeft[w.wg] == 0 {
					cuResidentWGs[w.cu]--
				}
				dispatch(now)
				continue
			}
			// Next compute segment on the CU issue port.
			grant := fmax(now, cuIssueFree[w.cu])
			done := grant + computeNSPerSeg
			cuIssueFree[w.cu] = done
			issueBusyNS += computeNSPerSeg
			seq++
			q.push(waveEvent{at: done, wave: ev.wave, seqKind: seq<<1 | evComputeDone})
		}
	}

	kernelNS := now
	total := kernelNS + k.LaunchOverheadNS
	var boundNS boundTimes
	boundNS[BoundCompute] = issueBusyNS / float64(cfg.CUs)
	boundNS[BoundDRAM] = dramBusyNS
	boundNS[BoundL2] = l2BusyNS
	// Whatever of the makespan is not explained by the busiest
	// resource is latency exposure.
	busiest := max(boundNS[BoundCompute], boundNS[BoundDRAM], boundNS[BoundL2])
	if kernelNS > busiest {
		boundNS[BoundLatency] = kernelNS - busiest
	}
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
