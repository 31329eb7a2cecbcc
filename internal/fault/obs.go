package fault

import (
	"time"

	"gpuscale/internal/obs"
)

// MetricInjected is the counter family Observe registers: fired
// faults, labelled kind="error|corrupt|stall|panic|torn-write".
const MetricInjected = "fault_injected_total"

// Observe returns an OnDecision hook that turns injector decisions
// into telemetry: one MetricInjected counter increment per fired
// fault, and one instant "fault" event in the fault category, carrying
// the cell, attempt and kind, to sink. Either may be nil. Counters are
// pre-registered so even a clean run exposes the series at zero —
// dashboards should not have to guess whether a missing counter means
// "no faults" or "no instrumentation".
func Observe(reg *obs.Registry, sink *obs.Sink) func(Decision) {
	var counters [len(kindNames)]*obs.Counter
	if reg != nil {
		for k := range counters {
			counters[k] = reg.Counter(MetricInjected, "faults fired by the injector",
				obs.L("kind", Kind(k).String()))
		}
	}
	return func(d Decision) {
		if reg != nil && int(d.Kind) < len(counters) {
			counters[d.Kind].Inc()
		}
		sink.Emit("fault", "fault", 0, obs.SpanContext{}, "", time.Now(), 0,
			obs.KS("kind", d.Kind.String()),
			obs.KS("kernel", d.Kernel),
			obs.KN("cus", float64(d.Config.CUs)),
			obs.KN("core_mhz", d.Config.CoreClockMHz),
			obs.KN("mem_mhz", d.Config.MemClockMHz),
			obs.KN("attempt", float64(d.Attempt)))
	}
}
