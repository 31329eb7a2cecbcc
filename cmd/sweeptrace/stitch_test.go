package main

import (
	"strings"
	"testing"

	"gpuscale/internal/obs"
)

// fleetEvents synthesizes one job's multi-process trace the way a
// coordinator + two workers would emit it: a serve job span, lease
// grants (one stolen), worker row spans, the row sweeps' row events,
// and coordinator completes — all linked by span parentage under one
// trace ID.
func fleetEvents(traceID string) []obs.Event {
	ev := func(name, cat, ph, span, parent, proc string, ts, dur float64, args map[string]any) obs.Event {
		return obs.Event{Name: name, Cat: cat, Phase: ph, TS: ts, Dur: dur,
			Trace: traceID, Span: span, Parent: parent, Proc: proc, Args: args}
	}
	return []obs.Event{
		ev("job", "serve", "X", "aaaaaaaaaaaaaaaa", "", "coordinator", 0, 5000,
			map[string]any{"job": "job-1", "state": "complete", "rows_done": 2.0, "client": "cli"}),
		ev("lease", "dist", "i", "b000000000000001", "aaaaaaaaaaaaaaaa", "coordinator", 10, 0,
			map[string]any{"job": "job-1", "row": 0.0, "epoch": 1.0, "worker": "w0"}),
		ev("steal", "dist", "i", "b000000000000002", "aaaaaaaaaaaaaaaa", "coordinator", 20, 0,
			map[string]any{"job": "job-1", "row": 1.0, "epoch": 2.0, "worker": "w1"}),
		ev("row", "dist", "X", "c000000000000001", "b000000000000001", "w0", 30, 1000,
			map[string]any{"job": "job-1", "row": 0.0, "epoch": 1.0, "worker": "w0", "accepted": true}),
		ev("row", "dist", "X", "c000000000000002", "b000000000000002", "w1", 40, 4000,
			map[string]any{"job": "job-1", "row": 1.0, "epoch": 2.0, "worker": "w1", "accepted": true}),
		ev("row", "sweep", "X", "", "c000000000000001", "w0", 35, 900,
			map[string]any{"kernel": "bfs", "queue_wait_us": 5.0, "ok": 891.0, "retries": 0.0}),
		ev("row", "sweep", "X", "", "c000000000000002", "w1", 50, 3500,
			map[string]any{"kernel": "hotspot", "queue_wait_us": 12.0, "ok": 891.0, "retries": 2.0}),
		ev("complete", "dist", "i", "", "b000000000000001", "coordinator", 1100, 0,
			map[string]any{"job": "job-1", "row": 0.0, "epoch": 1.0, "worker": "w0"}),
		ev("complete", "dist", "i", "", "b000000000000002", "coordinator", 4100, 0,
			map[string]any{"job": "job-1", "row": 1.0, "epoch": 2.0, "worker": "w1"}),
	}
}

func TestStitchExactlyOnceAndCriticalPath(t *testing.T) {
	var sb strings.Builder
	if err := renderStitched(&sb, fleetEvents("0123456789abcdef0123456789abcdef"), ""); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"trace 0123456789abcdef0123456789abcdef",
		"job job-1: state=complete",
		"every row exactly once",
		"critical path",
		"accepted row 1 on w1", // the 4000us row bounds wall-clock
		"slowest row: hotspot on w1 — compute 3.5ms, queue wait 0.0ms, 2 retries (of 2 rows)",
		"w0", "w1", "coordinator",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stitched output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ANOMALIES") || strings.Contains(out, "warning") {
		t.Fatalf("clean trace reported anomalies:\n%s", out)
	}
}

func TestStitchFlagsDuplicateAndMissingRows(t *testing.T) {
	evs := fleetEvents("ffffffffffffffffffffffffffffffff")
	// Duplicate row 0's completion and drop row 1's.
	var mutated []obs.Event
	for _, e := range evs {
		if e.Name == "complete" {
			if num(e.Args, "row") == 1 {
				continue
			}
			mutated = append(mutated, e, e)
			continue
		}
		mutated = append(mutated, e)
	}
	var sb strings.Builder
	if err := renderStitched(&sb, mutated, ""); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "ANOMALIES") ||
		!strings.Contains(out, "1 duplicated [0]") ||
		!strings.Contains(out, "1 missing [1]") {
		t.Fatalf("expected duplicate/missing anomalies in:\n%s", out)
	}
}

func TestStitchOrphanWarningWithPartialFleet(t *testing.T) {
	evs := fleetEvents("abcdefabcdefabcdefabcdefabcdefab")
	// Keep only worker w1's events: its row span's parent lease lives in
	// the coordinator file we "forgot" to pass.
	var partial []obs.Event
	for _, e := range evs {
		if e.Proc == "w1" {
			partial = append(partial, e)
		}
	}
	var sb strings.Builder
	if err := renderStitched(&sb, partial, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "warning") {
		t.Fatalf("partial fleet should warn about unresolvable parents:\n%s", sb.String())
	}
}

func TestStitchTraceFilter(t *testing.T) {
	evs := append(fleetEvents("11111111111111111111111111111111"),
		fleetEvents("22222222222222222222222222222222")...)
	var sb strings.Builder
	if err := renderStitched(&sb, evs, "2222"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "trace 1111") || !strings.Contains(out, "trace 2222") {
		t.Fatalf("trace filter leaked the wrong trace:\n%s", out)
	}
	if err := renderStitched(io_discard{}, evs, "no-such"); err == nil {
		t.Fatal("expected error for unmatched trace filter")
	}
}

type io_discard struct{}

func (io_discard) Write(p []byte) (int, error) { return len(p), nil }

// TestStitchVerifiedAndQuarantinedColumns: coordinator-side verified
// completes and quarantine events land in the per-worker table — the
// byzantine story must be readable straight off a stitched trace,
// including a quarantined worker that contributed no row span at all.
func TestStitchVerifiedAndQuarantinedColumns(t *testing.T) {
	trace := "1123456789abcdef0123456789abcdef"
	evs := fleetEvents(trace)
	// Mark row 1's complete as settled by independent verification.
	for i := range evs {
		if evs[i].Name == "complete" && num(evs[i].Args, "row") == 1 {
			evs[i].Args["verified"] = true
		}
	}
	evs = append(evs, obs.Event{Name: "quarantine", Cat: "dist", Phase: "i",
		Trace: trace, Proc: "coordinator", TS: 4200,
		Args: map[string]any{"job": "job-1", "row": 0.0, "worker": "liar"}})

	var sb strings.Builder
	if err := renderStitched(&sb, evs, ""); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"verified", "quarantined", "liar", "YES"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stitched output missing %q:\n%s", want, out)
		}
	}
	// The verified count sits on w1's table row; w0's stays 0, and the
	// quarantine marker sits on liar's row only.
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "w1"):
			if !strings.Contains(line, "1") {
				t.Fatalf("w1's row should count 1 verified complete: %q", line)
			}
			if strings.Contains(line, "YES") {
				t.Fatalf("w1 must not be marked quarantined: %q", line)
			}
		case strings.Contains(line, "liar"):
			if !strings.Contains(line, "YES") {
				t.Fatalf("liar's row should carry the quarantine marker: %q", line)
			}
		}
	}
}

// TestStitchTermTimeline: a failover trace — term 1 granting row 0,
// term 2 (a promoted standby) granting row 1, plus one stale-term
// complete caught by the fence — renders as a term table attributing
// each grant to the primary that made it. A healthy single-term trace
// must not be flagged, and two coordinators on one term must.
func TestStitchTermTimeline(t *testing.T) {
	trace := "2223456789abcdef0123456789abcdef"
	evs := fleetEvents(trace)
	for i := range evs {
		switch evs[i].Name {
		case "lease":
			evs[i].Args["term"] = 1.0
		case "steal":
			evs[i].Args["term"] = 2.0
		}
	}
	term := func(n float64, coord string, ts float64) obs.Event {
		return obs.Event{Name: "term", Cat: "dist", Phase: "i", Trace: trace,
			Proc: coord, TS: ts,
			Args: map[string]any{"job": "job-1", "term": n, "coordinator": coord}}
	}
	evs = append(evs,
		term(1, "primary-1", 5),
		term(2, "standby-1", 15),
		// The deposed primary's worker retried its complete against the
		// new primary with the old term and was fenced.
		obs.Event{Name: "fence", Cat: "dist", Phase: "i", Trace: trace,
			Proc: "standby-1", TS: 4150,
			Args: map[string]any{"job": "job-1", "row": 0.0, "worker": "w0",
				"term": 1.0, "current_term": 2.0}},
	)

	var sb strings.Builder
	if err := renderStitched(&sb, evs, ""); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Coordinator terms on this trace",
		"primary-1", "standby-1",
		"failovers: 1 (1 stale-term completes fenced)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("term timeline missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "two live primaries") {
		t.Fatalf("clean failover flagged as split-brain:\n%s", out)
	}

	// Same term asserted by two coordinators = split brain, flagged.
	split := append(fleetEvents("3333456789abcdef0123456789abcdef"),
		term(1, "primary-1", 5), term(1, "primary-2", 6))
	for i := range split {
		split[i].Trace = "3333456789abcdef0123456789abcdef"
	}
	sb.Reset()
	if err := renderStitched(&sb, split, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "two live primaries") {
		t.Fatalf("split-brain trace not flagged:\n%s", sb.String())
	}

	// A pre-HA trace renders no term table at all.
	sb.Reset()
	if err := renderStitched(&sb, fleetEvents("4443456789abcdef0123456789abcdef"), ""); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Coordinator terms") {
		t.Fatalf("pre-HA trace grew a term table:\n%s", sb.String())
	}
}
