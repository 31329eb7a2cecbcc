package memory

import (
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// Latency constants of the modelled hierarchy. Cache and interconnect
// latencies live in the core clock domain (they stretch in wall-clock
// terms when the core slows down); DRAM device latency is fixed in
// nanoseconds. GCN vector-memory latencies are long even on hits.
const (
	// L1HitCycles is vector-L1 hit latency in core cycles.
	L1HitCycles = 60
	// L2HitCycles is L2 hit latency (incl. interconnect) in core cycles.
	L2HitCycles = 160
	// DRAMCoreCycles is the core-domain portion of a DRAM access
	// (L2 miss handling, crossbar traversal).
	DRAMCoreCycles = 120
	// DRAMDeviceNS is the fixed device portion of a DRAM access.
	DRAMDeviceNS = 180
	// MaxQueueFactor caps how far queueing can stretch DRAM latency.
	MaxQueueFactor = 8
)

// PatternEfficiency returns the fraction of peak DRAM bandwidth a
// given access pattern can realise; row-buffer locality and burst
// utilisation degrade from streaming to pointer chasing.
func PatternEfficiency(p kernel.AccessPattern) float64 {
	switch p {
	case kernel.Streaming:
		return 0.88
	case kernel.Tiled:
		return 0.82
	case kernel.Strided:
		return 0.55
	case kernel.Gather:
		return 0.38
	case kernel.PointerChase:
		return 0.30
	default:
		return 0.5
	}
}

// Hierarchy is the analytic memory-system facade the timing engine
// queries: it converts a hardware configuration plus hit rates and
// offered load into effective bandwidth and average access latency.
type Hierarchy struct {
	cfg hw.Config
}

// NewHierarchy builds the facade for one hardware configuration.
func NewHierarchy(cfg hw.Config) Hierarchy {
	return Hierarchy{cfg: cfg}
}

// Config returns the hardware configuration the hierarchy models.
func (h Hierarchy) Config() hw.Config { return h.cfg }

// EffectiveBandwidthGBs returns the DRAM bandwidth usable by the given
// access pattern.
func (h Hierarchy) EffectiveBandwidthGBs(p kernel.AccessPattern) float64 {
	return h.cfg.PeakBandwidthGBs() * PatternEfficiency(p)
}

// DRAMLatencyNS returns the latency of one DRAM access at the given
// bandwidth utilisation (0..1). Queueing delay grows hyperbolically as
// the channel saturates, capped at MaxQueueFactor times the unloaded
// device latency.
func (h Hierarchy) DRAMLatencyNS(utilization float64) float64 {
	cyc := h.cfg.CoreCycleNS()
	unloaded := DRAMCoreCycles*cyc + DRAMDeviceNS
	u := clamp01(utilization)
	// M/D/1-flavoured stretch: delay ~ u/(2(1-u)) service times.
	queue := DRAMDeviceNS * u / (2 * max(1-u, 1.0/MaxQueueFactor))
	if queue > DRAMDeviceNS*MaxQueueFactor {
		queue = DRAMDeviceNS * MaxQueueFactor
	}
	return unloaded + queue
}

// L1LatencyNS returns vector-L1 hit latency in nanoseconds.
func (h Hierarchy) L1LatencyNS() float64 {
	return L1HitCycles * h.cfg.CoreCycleNS()
}

// L2LatencyNS returns L2 hit latency in nanoseconds.
func (h Hierarchy) L2LatencyNS() float64 {
	return L2HitCycles * h.cfg.CoreCycleNS()
}

// AvgAccessLatencyNS returns the mean latency of one vector memory
// access given the hit-rate split and DRAM utilisation.
func (h Hierarchy) AvgAccessLatencyNS(hr HitRates, utilization float64) float64 {
	m := h.AccessModel(hr)
	return m.LatencyNS(utilization)
}

// AccessModel is the average-access-latency curve of one (config,
// hit-rate) pair with every utilisation-independent term folded in.
// The round engine's fixed-point solver evaluates the curve dozens of
// times per batch; precomputing the hit/miss blend keeps those
// evaluations down to the queueing term. LatencyNS preserves
// AvgAccessLatencyNS's expression tree exactly, so the two agree bit
// for bit.
type AccessModel struct {
	hitNS        float64 // hr.L1 * L1 latency
	missL1       float64 // 1 - hr.L1
	l2NS         float64 // hr.L2 * L2 latency
	missL2       float64 // 1 - hr.L2
	dramUnloaded float64 // unloaded DRAM latency (core + device)
}

// AccessModel folds the hierarchy's latencies and the hit-rate split
// into a reusable latency curve.
func (h Hierarchy) AccessModel(hr HitRates) AccessModel {
	return AccessModel{
		hitNS:        hr.L1 * h.L1LatencyNS(),
		missL1:       1 - hr.L1,
		l2NS:         hr.L2 * h.L2LatencyNS(),
		missL2:       1 - hr.L2,
		dramUnloaded: DRAMCoreCycles*h.cfg.CoreCycleNS() + DRAMDeviceNS,
	}
}

// UnloadedNS returns LatencyNS(0) without the queueing arithmetic:
// at zero utilisation the queue term is exactly zero, so the two
// agree bit for bit.
func (m *AccessModel) UnloadedNS() float64 {
	return m.hitNS + m.missL1*(m.l2NS+m.missL2*m.dramUnloaded)
}

// LatencyNS returns the mean access latency at the given DRAM
// bandwidth utilisation (0..1).
func (m *AccessModel) LatencyNS(utilization float64) float64 {
	u := clamp01(utilization)
	queue := DRAMDeviceNS * u / (2 * max(1-u, 1.0/MaxQueueFactor))
	if queue > DRAMDeviceNS*MaxQueueFactor {
		queue = DRAMDeviceNS * MaxQueueFactor
	}
	dram := m.dramUnloaded + queue
	return m.hitNS + m.missL1*(m.l2NS+m.missL2*dram)
}
