// Package obs is the observability layer for long measurement
// campaigns: a metrics registry (atomic counters, gauges, bounded
// histograms with Prometheus-style text exposition), a span-based
// trace writer (JSONL, Chrome trace-event schema), and a throttled
// progress reporter — everything a weeks-long sweep needs to stop
// being a black box while it runs.
//
// The package depends only on the standard library and knows nothing
// about sweeps or kernels; internal/sweep and internal/fault attach
// meaning to the metric names and span categories they emit.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates exposition TYPE lines.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta via compare-and-swap.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Bounds are set at
// registration and never grow, so memory stays bounded no matter how
// many observations arrive; observations beyond the last bound land in
// the implicit +Inf bucket.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, excluding +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits accumulated via CAS
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the branch
	// predictor does well on latency distributions.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile returns an estimate of quantile q in [0,1] by linear
// interpolation within the winning bucket — good enough for progress
// lines and trace summaries, not for billing.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen uint64
	lo := 0.0
	for i := range h.buckets {
		n := h.buckets[i].Load()
		hi := math.Inf(1)
		if i < len(h.bounds) {
			hi = h.bounds[i]
		}
		if float64(seen+n) >= rank {
			if n == 0 || math.IsInf(hi, 1) {
				return lo
			}
			frac := (rank - float64(seen)) / float64(n)
			return lo + frac*(hi-lo)
		}
		seen += n
		lo = hi
	}
	return lo
}

// DefBuckets is the default latency bucket ladder, in seconds —
// microseconds through tens of seconds, exponential-ish.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// series is one registered (name, labels) time series.
type series struct {
	name   string
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series of one metric name for exposition.
type family struct {
	name string
	help string
	kind metricKind
}

// Registry holds metric families and their series. All methods are
// safe for concurrent use; series registration is idempotent — asking
// for the same (name, labels) returns the same instance.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	series   map[string]*series
	order    []string // registration order of series keys
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		series:   map[string]*series{},
	}
}

func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// register returns the series for (name, labels), creating it (and its
// family) on first use; the caller holds r.mu and sets the series'
// instrument before unlocking, so a published series always has one. A
// name reused with a different kind panics: that is a programming
// error, not a runtime condition.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	key := seriesKey(name, labels)
	s, ok := r.series[key]
	if !ok {
		s = &series{name: name, labels: append([]Label(nil), labels...)}
		r.series[key] = s
		r.order = append(r.order, key)
	}
	return s
}

// Counter returns (registering on first use) the counter series for
// name and labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, kindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns (registering on first use) the gauge series for name
// and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, kindGauge, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns (registering on first use) the histogram series
// for name and labels. buckets is used only on first registration; nil
// means DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, kindHistogram, labels)
	if s.h == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		s.h = &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	}
	return s.h
}

// Sample is one exposed time-series value in a Snapshot.
type Sample struct {
	// Name is the metric family name.
	Name string
	// Labels are the series labels, in registration order.
	Labels []Label
	// Kind is "counter", "gauge" or "histogram".
	Kind string
	// Value holds the counter count or gauge level; for histograms it
	// is the observation count, with Sum carrying the value total.
	Value float64
	// Sum is the histogram sum (0 for counters and gauges).
	Sum float64
}

// Snapshot returns a point-in-time copy of every registered series,
// in registration order — the programmatic sibling of WriteText.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	ss := make([]*series, len(keys))
	fams := make([]*family, len(keys))
	for i, k := range keys {
		ss[i] = r.series[k]
		fams[i] = r.families[ss[i].name]
	}
	r.mu.Unlock()
	out := make([]Sample, 0, len(ss))
	for i, s := range ss {
		smp := Sample{Name: s.name, Labels: s.labels, Kind: fams[i].kind.String()}
		switch {
		case s.c != nil:
			smp.Value = float64(s.c.Value())
		case s.g != nil:
			smp.Value = s.g.Value()
		case s.h != nil:
			smp.Value = float64(s.h.Count())
			smp.Sum = s.h.Sum()
		}
		out = append(out, smp)
	}
	return out
}

// EscapeLabelValue escapes a label value for the Prometheus text
// exposition format: backslash, double-quote and newline become \\,
// \" and \n; everything else — tabs, arbitrary UTF-8 — passes through
// raw, exactly as the format specifies. Go's %q is NOT a substitute:
// it escapes tabs, control bytes and non-ASCII runes into Go syntax a
// Prometheus parser would read literally. Worker names and kernel IDs
// land in labels verbatim, so this is load-bearing, not cosmetic.
func EscapeLabelValue(v string) string {
	// Fast path: nothing to escape (the overwhelmingly common case).
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// labelString renders {k="v",...} or "" for an unlabelled series.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Key + `="` + EscapeLabelValue(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers per family, then one
// line per series, histograms expanded into cumulative _bucket series
// plus _sum and _count.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	ss := make([]*series, len(keys))
	for i, k := range keys {
		ss[i] = r.series[k]
	}
	// Families are copied: a later registration may still fill in a
	// help string.
	fams := map[string]family{}
	for n, f := range r.families {
		fams[n] = *f
	}
	r.mu.Unlock()

	seen := map[string]bool{}
	for _, s := range ss {
		f := fams[s.name]
		if !seen[s.name] {
			seen[s.name] = true
			if f.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
				return err
			}
		}
		switch {
		case s.c != nil:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", s.name, labelString(s.labels), s.c.Value()); err != nil {
				return err
			}
		case s.g != nil:
			if _, err := fmt.Fprintf(w, "%s%s %g\n", s.name, labelString(s.labels), s.g.Value()); err != nil {
				return err
			}
		case s.h != nil:
			var cum uint64
			for i := range s.h.buckets {
				cum += s.h.buckets[i].Load()
				le := "+Inf"
				if i < len(s.h.bounds) {
					le = fmt.Sprintf("%g", s.h.bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					s.name, labelString(s.labels, L("le", le)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", s.name, labelString(s.labels), s.h.Sum()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, labelString(s.labels), s.h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}
