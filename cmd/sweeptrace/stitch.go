package main

import (
	"fmt"
	"io"
	"sort"

	"gpuscale/internal/obs"
	"gpuscale/internal/report"
)

// stitched is one distributed trace reassembled from any number of
// per-process trace files: the serve-side job span, the coordinator's
// lease grants, the workers' row spans, and the row sweeps' events, all
// linked by span parentage. The stitcher is deliberately tolerant —
// a partial fleet (a missing worker file, a crashed process) still
// renders, with the gaps called out instead of papered over.
type stitched struct {
	id string
	// jobs holds serve job spans, one per run attempt (a resumed job
	// emits a span per attempt under the same trace ID).
	jobs []obs.Event
	// leases maps lease span ID -> the coordinator's grant instant
	// ("lease" or "steal"). Row spans point here via Parent.
	leases map[string]obs.Event
	// rows holds worker row spans (ph "X", category "dist").
	rows []obs.Event
	// sweepRows holds the row sweeps' row events (category "sweep"):
	// their compute time, queue wait and retries.
	sweepRows []obs.Event
	// completes counts coordinator-accepted completions per row index;
	// exactly-once accounting checks every value is 1.
	completes map[int]int
	// leasedRows is the set of row indexes ever granted.
	leasedRows map[int]bool
	steals     int
	fences     int
	// verifiedBy counts coordinator-accepted completes per worker that
	// were settled by independent digest agreement; quarantinedW is the
	// set of workers the coordinator fenced fleet-wide on this trace.
	verifiedBy   map[string]int
	quarantinedW map[string]bool
	// termCoord maps each coordinator term observed on the trace to the
	// coordinator IDs that asserted it (more than one ID per term means
	// two live primaries — an HA invariant violation worth rendering).
	// grantsByTerm counts lease/steal grants made under each term, and
	// termFences counts completes rejected for carrying a stale term.
	termCoord    map[int]map[string]bool
	grantsByTerm map[int]int
	termFences   int
	// procs is the set of process names that contributed events.
	procs map[string]bool
	// spans is every span ID minted on this trace; used to detect
	// orphaned events whose Parent resolves to no known span.
	spans   map[string]bool
	orphans int
	events  int
}

// stitch groups trace-carrying events by trace ID and reassembles
// each into a stitched view. Events without a trace ID (single-process
// sweeps, pre-trace files) are ignored here — the flat summary covers
// them.
func stitch(evs []obs.Event) []*stitched {
	byTrace := map[string]*stitched{}
	get := func(id string) *stitched {
		st := byTrace[id]
		if st == nil {
			st = &stitched{
				id:           id,
				leases:       map[string]obs.Event{},
				completes:    map[int]int{},
				leasedRows:   map[int]bool{},
				procs:        map[string]bool{},
				spans:        map[string]bool{},
				verifiedBy:   map[string]int{},
				quarantinedW: map[string]bool{},
				termCoord:    map[int]map[string]bool{},
				grantsByTerm: map[int]int{},
			}
			byTrace[id] = st
		}
		return st
	}
	// First pass: collect spans so orphan detection on the second pass
	// sees the full ID set regardless of file order.
	for _, e := range evs {
		if e.Trace == "" {
			continue
		}
		st := get(e.Trace)
		st.events++
		if e.Span != "" {
			st.spans[e.Span] = true
		}
		if e.Proc != "" {
			st.procs[e.Proc] = true
		}
	}
	for _, e := range evs {
		if e.Trace == "" {
			continue
		}
		st := byTrace[e.Trace]
		switch e.Name {
		case "job":
			st.jobs = append(st.jobs, e)
		case "lease", "steal":
			if e.Span != "" {
				st.leases[e.Span] = e
			}
			st.leasedRows[int(num(e.Args, "row"))] = true
			if e.Name == "steal" {
				st.steals++
			}
			if _, ok := e.Args["term"]; ok {
				st.grantsByTerm[int(num(e.Args, "term"))]++
			}
		case "term":
			t := int(num(e.Args, "term"))
			if st.termCoord[t] == nil {
				st.termCoord[t] = map[string]bool{}
			}
			st.termCoord[t][str(e.Args, "coordinator")] = true
		case "row":
			// The dist-layer row span and the sweep executor's row event
			// share the name; the category tells them apart.
			if e.Cat == "dist" {
				st.rows = append(st.rows, e)
			} else {
				st.sweepRows = append(st.sweepRows, e)
			}
		case "complete":
			st.completes[int(num(e.Args, "row"))]++
			if ok, _ := e.Args["verified"].(bool); ok {
				st.verifiedBy[str(e.Args, "worker")]++
			}
		case "fence":
			st.fences++
			// Term fences carry current_term; epoch fences carry current.
			if _, ok := e.Args["current_term"]; ok {
				st.termFences++
			}
		case "quarantine":
			st.quarantinedW[str(e.Args, "worker")] = true
		}
		// The job span's parent is the submitting client's span, which
		// lives outside the fleet's files — never an orphan.
		if e.Parent != "" && e.Name != "job" && !st.spans[e.Parent] {
			st.orphans++
		}
	}
	out := make([]*stitched, 0, len(byTrace))
	for _, st := range byTrace {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// end returns a span's finishing timestamp in microseconds.
func end(e obs.Event) float64 { return e.TS + e.Dur }

// accepted reports whether a row span's completion was accepted by the
// coordinator (not fenced as a stale epoch).
func accepted(e obs.Event) bool {
	ok, _ := e.Args["accepted"].(bool)
	return ok
}

// render prints one stitched trace: the job header, per-worker
// contribution, exactly-once row accounting, and the critical path —
// the latest-finishing row, named by worker, lease and epoch, and the
// slowest row the sweeps computed.
func (st *stitched) render(w io.Writer) error {
	fmt.Fprintf(w, "trace %s: %d events from %d processes (%s)\n",
		st.id, st.events, len(st.procs), joinSorted(st.procs))
	for _, j := range st.jobs {
		fmt.Fprintf(w, "  job %s: state=%s rows_done=%.0f wall=%.1fms client=%s proc=%s\n",
			str(j.Args, "job"), str(j.Args, "state"), num(j.Args, "rows_done"),
			j.Dur/1000, str(j.Args, "client"), j.Proc)
	}

	// Per-worker contribution, assembled from lease grants and row
	// spans. Busy time is the sum of the worker's accepted row spans.
	type contrib struct {
		leases, steals, rows, fenced int
		busyUS                       float64
	}
	workers := map[string]*contrib{}
	wc := func(name string) *contrib {
		if name == "" {
			name = "(unnamed)"
		}
		c := workers[name]
		if c == nil {
			c = &contrib{}
			workers[name] = c
		}
		return c
	}
	for _, l := range st.leases {
		c := wc(str(l.Args, "worker"))
		c.leases++
		if l.Name == "steal" {
			c.steals++
		}
	}
	for _, r := range st.rows {
		c := wc(str(r.Args, "worker"))
		if accepted(r) {
			c.rows++
			c.busyUS += r.Dur
		} else {
			c.fenced++
		}
	}
	if len(workers) > 0 {
		// Quarantined workers may have no lease or row span at all on a
		// partial file set — still list them, the fence is the story.
		for n := range st.quarantinedW {
			wc(n)
		}
		wt := &report.Table{
			Title:  "Workers on this trace",
			Header: []string{"worker", "leases", "steals", "rows", "verified", "fenced", "quarantined", "busy(ms)"},
		}
		names := make([]string, 0, len(workers))
		for n := range workers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			c := workers[n]
			q := ""
			if st.quarantinedW[n] {
				q = "YES"
			}
			wt.AddRow(n, c.leases, c.steals, c.rows, st.verifiedBy[n], c.fenced, q,
				report.FormatFloat(c.busyUS/1000))
		}
		if err := wt.Render(w); err != nil {
			return err
		}
	}

	if err := st.renderTerms(w); err != nil {
		return err
	}
	st.renderAccounting(w)
	st.renderCriticalPath(w)
	if st.orphans > 0 {
		fmt.Fprintf(w, "  warning: %d events reference spans missing from the given files (add the other processes' traces)\n", st.orphans)
	}
	fmt.Fprintln(w)
	return nil
}

// renderTerms prints the failover story: which coordinator asserted
// each term, how many grants it made under it, and how many stale
// completes the term fence caught. Two coordinator IDs on one term is
// the no-two-live-primaries invariant failing and is flagged as such.
// Pre-HA traces (no term events, no term args) render nothing.
func (st *stitched) renderTerms(w io.Writer) error {
	terms := map[int]bool{}
	for t := range st.termCoord {
		terms[t] = true
	}
	for t := range st.grantsByTerm {
		terms[t] = true
	}
	if len(terms) == 0 {
		return nil
	}
	order := make([]int, 0, len(terms))
	for t := range terms {
		order = append(order, t)
	}
	sort.Ints(order)
	tt := &report.Table{
		Title:  "Coordinator terms on this trace",
		Header: []string{"term", "coordinator", "grants"},
	}
	split := false
	for _, t := range order {
		who := joinSorted(st.termCoord[t])
		if who == "" {
			who = "(no term event — add the coordinator's trace)"
		}
		if len(st.termCoord[t]) > 1 {
			split = true
		}
		tt.AddRow(t, who, st.grantsByTerm[t])
	}
	if err := tt.Render(w); err != nil {
		return err
	}
	if split {
		fmt.Fprintln(w, "  ANOMALY: multiple coordinators asserted the same term — two live primaries")
	}
	if len(order) > 1 {
		fmt.Fprintf(w, "  failovers: %d (%d stale-term completes fenced)\n", len(order)-1, st.termFences)
	}
	return nil
}

// renderAccounting checks exactly-once completion: every leased row
// must be accepted by the coordinator exactly once. Duplicates mean a
// fencing hole; missing rows mean lost work — both are protocol bugs
// worth shouting about, so anomalies are listed row by row.
func (st *stitched) renderAccounting(w io.Writer) {
	if len(st.leasedRows) == 0 && len(st.completes) == 0 {
		return
	}
	var dup, missing []int
	for r := range st.leasedRows {
		switch n := st.completes[r]; {
		case n == 0:
			missing = append(missing, r)
		case n > 1:
			dup = append(dup, r)
		}
	}
	sort.Ints(dup)
	sort.Ints(missing)
	done := 0
	for _, n := range st.completes {
		if n > 0 {
			done++
		}
	}
	switch {
	case len(dup) == 0 && len(missing) == 0:
		fmt.Fprintf(w, "  rows: %d leased, %d completed — every row exactly once", len(st.leasedRows), done)
	default:
		fmt.Fprintf(w, "  rows: %d leased, %d completed — ANOMALIES: %d duplicated %v, %d missing %v",
			len(st.leasedRows), done, len(dup), dup, len(missing), missing)
	}
	if st.fences > 0 {
		fmt.Fprintf(w, " (%d stale completes fenced)", st.fences)
	}
	fmt.Fprintln(w)
}

// renderCriticalPath names what bounded wall-clock: the accepted row
// span that finished last and the lease it ran under, then the slowest
// row the sweeps computed — its compute time, queue wait and retries.
// This is the "why was this job slow" answer: the straggler worker and
// the heaviest kernel, read straight off the stitched trace.
func (st *stitched) renderCriticalPath(w io.Writer) {
	var last, slow *obs.Event
	for i := range st.rows {
		r := &st.rows[i]
		if accepted(*r) && (last == nil || end(*r) > end(*last)) {
			last = r
		}
	}
	for i := range st.sweepRows {
		if r := &st.sweepRows[i]; slow == nil || r.Dur > slow.Dur {
			slow = r
		}
	}
	if last == nil && slow == nil {
		return
	}
	fmt.Fprintln(w, "  critical path:")
	if last != nil {
		lease := "?"
		if l, ok := st.leases[last.Parent]; ok && l.Span != "" {
			lease = l.Span
		}
		fmt.Fprintf(w, "    latest-finishing accepted row %.0f on %s: %.1fms (lease %s epoch %.0f, proc %s)\n",
			num(last.Args, "row"), str(last.Args, "worker"), last.Dur/1000,
			lease, num(last.Args, "epoch"), last.Proc)
	}
	if slow != nil {
		fmt.Fprintf(w, "    slowest row: %s on %s — compute %.1fms, queue wait %.1fms, %.0f retries (of %d rows)\n",
			str(slow.Args, "kernel"), slow.Proc, slow.Dur/1000, num(slow.Args, "queue_wait_us")/1000,
			num(slow.Args, "retries"), len(st.sweepRows))
	}
}

func joinSorted(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// renderStitched prints the stitched multi-process view for every
// trace ID found in the merged event stream, optionally restricted to
// IDs with a given prefix.
func renderStitched(w io.Writer, evs []obs.Event, traceFilter string) error {
	traces := stitch(evs)
	if traceFilter != "" {
		kept := traces[:0]
		for _, st := range traces {
			if len(st.id) >= len(traceFilter) && st.id[:len(traceFilter)] == traceFilter {
				kept = append(kept, st)
			}
		}
		traces = kept
	}
	if len(traces) == 0 {
		return fmt.Errorf("no distributed traces found (events carry no trace IDs%s)",
			filterNote(traceFilter))
	}
	for _, st := range traces {
		if err := st.render(w); err != nil {
			return err
		}
	}
	return nil
}

func filterNote(f string) string {
	if f == "" {
		return ""
	}
	return fmt.Sprintf(" matching %q", f)
}
