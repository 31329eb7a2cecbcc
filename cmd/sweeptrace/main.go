// Command sweeptrace summarizes a sweep trace written by
// `gpusweep -trace-out` or `gpuscaled -trace-out`: the kernel rows by
// compute time, with their queue wait and retries, retry hotspots (the
// cells that burned the most attempts), cell statuses and a breakdown
// of injected fault kinds, and — when the trace carries
// distributed-sweep events — a per-worker fleet table
// (rows completed, leases stolen, stale completes fenced, renewal
// latency percentiles) so stragglers are diagnosable from the trace
// alone. Several trace files can be summarized together, e.g. a
// coordinator's plus each worker's. It can also re-wrap the JSONL
// stream into a JSON array loadable by Chrome-compatible trace
// viewers (chrome://tracing, Perfetto).
//
// Usage:
//
//	sweeptrace run.trace                  # summary tables
//	sweeptrace -top 5 run.trace           # cap the row and hotspot listings
//	sweeptrace -kernel graphana run.trace # restrict to matching kernels
//	sweeptrace -chrome run.json run.trace # convert for trace viewers
//	sweeptrace coord.trace w0.trace w1.trace  # merge a fleet's traces
//	gpusweep ... -trace-out - | sweeptrace -   # not supported: trace
//	                                      # files only, "-" reads stdin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gpuscale/internal/obs"
	"gpuscale/internal/report"
	"gpuscale/internal/stats"
)

func main() {
	top := flag.Int("top", 10, "entries to show in the row and retry-hotspot tables")
	kernelFilter := flag.String("kernel", "", "only summarize kernels whose name contains this substring")
	chromeOut := flag.String("chrome", "", "also write the events as a Chrome-viewer JSON array to this file")
	stitchView := flag.Bool("stitch", false, "stitch multi-process traces by trace ID: per-job workers, exactly-once row accounting, critical path")
	traceFilter := flag.String("trace", "", "with -stitch, only render traces whose ID starts with this prefix")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: sweeptrace [-top n] [-kernel substr] [-chrome out.json] [-stitch [-trace id]] <trace.jsonl ... | ->")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Args(), *kernelFilter, *top, *chromeOut, *stitchView, *traceFilter); err != nil {
		fmt.Fprintln(os.Stderr, "sweeptrace:", err)
		os.Exit(1)
	}
}

func readTrace(path string) ([]obs.Event, error) {
	if path == "-" {
		return obs.ReadEvents(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

func run(w io.Writer, paths []string, kernelFilter string, top int, chromeOut string, stitchView bool, traceFilter string) error {
	var evs []obs.Event
	for _, path := range paths {
		e, err := readTrace(path)
		if err != nil {
			return err
		}
		evs = append(evs, e...)
	}
	if chromeOut != "" {
		if err := writeChrome(chromeOut, evs); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", chromeOut)
	}
	if stitchView {
		return renderStitched(w, evs, traceFilter)
	}
	s := summarize(evs, kernelFilter)
	if kernelFilter != "" && len(s.rows) == 0 {
		return fmt.Errorf("no row events match kernel filter %q", kernelFilter)
	}
	return s.render(w, top)
}

// cellID names one (kernel, configuration) cell the way CellFailure
// does, so hotspot rows read like failure dumps.
type cellID struct {
	kernel string
	cus    int
	core   float64
	mem    float64
}

func (c cellID) String() string {
	return fmt.Sprintf("%s @ cu=%d core=%g mem=%g", c.kernel, c.cus, c.core, c.mem)
}

// workerStats aggregates one fleet worker's distributed-sweep events
// (category "dist" — emitted by the coordinator and the workers).
type workerStats struct {
	// leases and steals count grants to this worker; a steal is a grant
	// of another worker's expired lease.
	leases, steals int
	// fenced counts this worker's completes rejected as stale-epoch —
	// each one is a row it computed for nothing.
	fenced int
	// completes counts coordinator-side accepted completes; rows counts
	// worker-side accepted row spans. A merged coordinator+worker trace
	// sees both for the same row, so rowsDone() takes the max.
	completes, rows int
	// renews holds renewal round-trip durations in microseconds.
	renews []float64
}

func (w *workerStats) rowsDone() int {
	if w.completes > w.rows {
		return w.completes
	}
	return w.rows
}

// summary aggregates one trace.
type summary struct {
	// rows holds the sweep's row events (category "sweep").
	rows []obs.Event
	// attempts holds the highest attempt each retried cell reached.
	attempts map[cellID]int
	// statuses sums the row events' cell counts by terminal status.
	statuses map[string]int
	// faults counts injected faults by kind.
	faults map[string]int
	// breakerTrips counts circuit-breaker quarantine events.
	breakerTrips int
	// fleet holds per-worker distributed-sweep stats, when present.
	fleet map[string]*workerStats
	// sweep is the whole-sweep span, if present.
	sweep *obs.Event
	// events is the total event count (post-filter).
	events int
}

// num pulls a float out of span args (JSON numbers decode as float64).
func num(args map[string]any, key string) float64 {
	v, _ := args[key].(float64)
	return v
}

func str(args map[string]any, key string) string {
	v, _ := args[key].(string)
	return v
}

func summarize(evs []obs.Event, kernelFilter string) *summary {
	s := &summary{
		attempts: map[cellID]int{},
		statuses: map[string]int{},
		faults:   map[string]int{},
		fleet:    map[string]*workerStats{},
	}
	worker := func(e obs.Event) *workerStats {
		name := str(e.Args, "worker")
		if name == "" {
			name = "(unnamed)"
		}
		ws := s.fleet[name]
		if ws == nil {
			ws = &workerStats{}
			s.fleet[name] = ws
		}
		return ws
	}
	for i := range evs {
		e := evs[i]
		kernel := str(e.Args, "kernel")
		// Fleet events carry no kernel; they are row-grained, so the
		// kernel filter does not apply to them.
		if kernelFilter != "" && e.Name != "sweep" && e.Cat != "dist" && !strings.Contains(kernel, kernelFilter) {
			continue
		}
		s.events++
		switch e.Name {
		case "attempt":
			id := cellID{kernel: kernel, cus: int(num(e.Args, "cus")),
				core: num(e.Args, "core_mhz"), mem: num(e.Args, "mem_mhz")}
			s.attempts[id] = max(s.attempts[id], int(num(e.Args, "attempt")))
		case "fault":
			s.faults[str(e.Args, "kind")]++
		case "breaker":
			s.breakerTrips++
		case "sweep":
			s.sweep = &evs[i]
		case "lease":
			worker(e).leases++
		case "steal":
			ws := worker(e)
			ws.leases++
			ws.steals++
		case "fence":
			worker(e).fenced++
		case "complete":
			worker(e).completes++
		case "renew":
			worker(e).renews = append(worker(e).renews, e.Dur)
		case "row":
			if e.Cat == "sweep" {
				s.rows = append(s.rows, e)
				for _, st := range statusArgs {
					if n := int(num(e.Args, st)); n > 0 {
						s.statuses[st] += n
					}
				}
			} else if ok, _ := e.Args["accepted"].(bool); ok {
				worker(e).rows++
			}
		}
	}
	return s
}

// statusArgs are the cell statuses a row event counts.
var statusArgs = []string{"ok", "failed", "canceled", "quarantined"}

func (s *summary) render(w io.Writer, top int) error {
	if s.events == 0 {
		return fmt.Errorf("no matching events in trace")
	}
	if s.sweep != nil {
		a := s.sweep.Args
		fmt.Fprintf(w, "sweep: %.0f cells (%.0f ok, %.0f failed, %.0f canceled, %.0f quarantined, %.0f reused), %.0f attempts, %.0f retries, %.0f breaker trips, wall %.1fms\n\n",
			num(a, "cells"), num(a, "ok"), num(a, "failed"), num(a, "canceled"),
			num(a, "quarantined"), num(a, "skipped"), num(a, "attempts"), num(a, "retries"),
			num(a, "breaker_trips"), s.sweep.Dur/1000)
	}

	// Rows, slowest compute first: where the sweep's time went.
	sort.SliceStable(s.rows, func(i, j int) bool {
		if s.rows[i].Dur != s.rows[j].Dur {
			return s.rows[i].Dur > s.rows[j].Dur
		}
		return str(s.rows[i].Args, "kernel") < str(s.rows[j].Args, "kernel")
	})
	rt := &report.Table{
		Title:  fmt.Sprintf("Rows by compute time in us (top %d of %d)", min(top, len(s.rows)), len(s.rows)),
		Header: []string{"kernel", "compute", "queue wait", "cells", "retries"},
	}
	for i, r := range s.rows {
		if i == top {
			break
		}
		cells := 0
		for _, st := range statusArgs {
			cells += int(num(r.Args, st))
		}
		rt.AddRow(str(r.Args, "kernel"), report.FormatFloat(r.Dur),
			report.FormatFloat(num(r.Args, "queue_wait_us")), cells, int(num(r.Args, "retries")))
	}
	if err := rt.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Retry hotspots: cells that consumed more than one attempt.
	type hot struct {
		id cellID
		n  int
	}
	var hots []hot
	for id, n := range s.attempts {
		if n > 1 {
			hots = append(hots, hot{id, n})
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].n != hots[j].n {
			return hots[i].n > hots[j].n
		}
		return hots[i].id.String() < hots[j].id.String()
	})
	ht := &report.Table{
		Title:  fmt.Sprintf("Retry hotspots (top %d of %d retried cells)", top, len(hots)),
		Header: []string{"cell", "attempts"},
	}
	for i, h := range hots {
		if i == top {
			break
		}
		ht.AddRow(h.id.String(), h.n)
	}
	if len(hots) == 0 {
		ht.AddRow("(no cell needed a retry)", "")
	}
	if err := ht.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Fleet breakdown: only distributed traces have one. Slowest
	// renewal p99 first — that is the straggler diagnostic.
	if len(s.fleet) > 0 {
		wt := &report.Table{
			Title:  "Fleet workers (renewal latency in us)",
			Header: []string{"worker", "rows", "leases", "steals", "fenced", "renews", "p50", "p90", "p99"},
		}
		names := make([]string, 0, len(s.fleet))
		for n := range s.fleet {
			names = append(names, n)
		}
		renewP99 := map[string]float64{}
		for n, ws := range s.fleet {
			renewP99[n] = -1 // sorts renew-less workers last, NaN-free
			if len(ws.renews) > 0 {
				renewP99[n] = stats.Quantile(ws.renews, 0.99)
			}
		}
		sort.Slice(names, func(i, j int) bool {
			if renewP99[names[i]] != renewP99[names[j]] {
				return renewP99[names[i]] > renewP99[names[j]]
			}
			return names[i] < names[j]
		})
		for _, n := range names {
			ws := s.fleet[n]
			p50, p90, p99 := "-", "-", "-"
			if len(ws.renews) > 0 {
				p50 = report.FormatFloat(stats.Quantile(ws.renews, 0.5))
				p90 = report.FormatFloat(stats.Quantile(ws.renews, 0.9))
				p99 = report.FormatFloat(renewP99[n])
			}
			wt.AddRow(n, ws.rowsDone(), ws.leases, ws.steals, ws.fenced, len(ws.renews), p50, p90, p99)
		}
		if err := wt.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	// Cell statuses and injected-fault kinds.
	ft := &report.Table{
		Title:  "Cell statuses and injected faults",
		Header: []string{"bucket", "count"},
	}
	for _, k := range sortedKeys(s.statuses) {
		ft.AddRow("status "+k, s.statuses[k])
	}
	for _, k := range sortedKeys(s.faults) {
		ft.AddRow("fault "+k, s.faults[k])
	}
	if len(s.faults) == 0 {
		ft.AddRow("fault (none)", 0)
	}
	if s.breakerTrips > 0 {
		ft.AddRow("breaker trips", s.breakerTrips)
	}
	return ft.Render(w)
}

func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// writeChrome wraps the JSONL events into the JSON array form Chrome
// trace viewers load directly.
func writeChrome(path string, evs []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := enc.Encode(evs); err != nil {
		return err
	}
	return f.Close()
}
