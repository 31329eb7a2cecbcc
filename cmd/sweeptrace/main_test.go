package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
	"gpuscale/internal/sweep"
)

// writeTestTrace runs a small faulty sweep with telemetry attached and
// returns the trace path plus the run report, so assertions compare
// sweeptrace's summary against ground truth.
func writeTestTrace(t *testing.T) (string, *sweep.RunReport) {
	t.Helper()
	space, err := hw.NewSpace([]int{4, 24, 44}, []float64{200, 600, 1000}, []float64{150, 700, 1250})
	if err != nil {
		t.Fatal(err)
	}
	kernels := []*kernel.Kernel{
		kernel.New("s", "p", "alpha").Geometry(512, 256).MustBuild(),
		kernel.New("s", "p", "beta").Geometry(512, 256).Compute(30000, 100).MustBuild(),
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := obs.NewTraceWriter(f)
	tel := sweep.NewTelemetry(nil, tw)
	in := fault.Injector{ErrorRate: 0.2, Seed: 5, OnDecision: fault.Observe(tel.Registry(), tw)}
	opts := sweep.Options{Workers: 4, Row: in.WrapRow(gcn.RoundRow), Retries: 8, Observer: tel}
	_, rep, err := sweep.RunContext(context.Background(), kernels, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 {
		t.Fatal("fault storm caused no retries; test proves nothing")
	}
	return path, rep
}

func runToString(t *testing.T, path, kernelFilter string, top int, chromeOut string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(&sb, []string{path}, kernelFilter, top, chromeOut, false, ""); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestSummaryMatchesReport(t *testing.T) {
	path, rep := writeTestTrace(t)
	out := runToString(t, path, "", 10, "")

	for _, want := range []string{
		"Per-kernel cell latency (us)",
		"Retry hotspots",
		"Cell statuses and injected faults",
		"alpha", "beta",
		"p50", "p99",
		"fault error",
		"status ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// The sweep header line carries the report's totals.
	line, _, _ := strings.Cut(out, "\n")
	for _, frag := range []string{
		"54 cells", "54 ok",
		"attempts", "retries",
	} {
		if !strings.Contains(line, frag) {
			t.Errorf("sweep line missing %q: %s", frag, line)
		}
	}
	if rep.Cells != 54 || rep.OK != 54 {
		t.Fatalf("test sweep changed shape: %+v", rep)
	}
}

func TestKernelFilter(t *testing.T) {
	path, _ := writeTestTrace(t)
	out := runToString(t, path, "alpha", 10, "")
	if !strings.Contains(out, "alpha") {
		t.Fatalf("filtered summary lost the kept kernel:\n%s", out)
	}
	// beta rows are gone from the latency table.
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "beta") {
			t.Fatalf("filter leaked kernel beta: %s", ln)
		}
	}
	if err := run(io.Discard, []string{path}, "no-such-kernel", 10, "", false, ""); err == nil {
		t.Fatal("want error when no events match the filter")
	}
}

func TestTopCapsHotspotTable(t *testing.T) {
	path, rep := writeTestTrace(t)
	out := runToString(t, path, "", 1, "")
	_, rest, ok := strings.Cut(out, "Retry hotspots")
	if !ok {
		t.Fatalf("no hotspot table:\n%s", out)
	}
	table, _, _ := strings.Cut(rest, "\n\n")
	rows := 0
	for _, ln := range strings.Split(table, "\n") {
		if strings.Contains(ln, "@ cu=") {
			rows++
		}
	}
	if rows != 1 {
		t.Fatalf("-top 1 left %d hotspot rows:\n%s", rows, table)
	}
	if !strings.Contains(rest, "retried cells") || rep.Retries == 0 {
		t.Fatalf("hotspot title should state the full retried-cell count:\n%s", rest)
	}
}

func TestChromeExport(t *testing.T) {
	path, _ := writeTestTrace(t)
	chrome := filepath.Join(t.TempDir(), "run.json")
	runToString(t, path, "", 10, chrome)
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var evs []obs.Event
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("chrome output is not a JSON array of events: %v", err)
	}
	raw, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	orig, err := obs.ReadEvents(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(orig) {
		t.Fatalf("chrome array has %d events, trace has %d", len(evs), len(orig))
	}
}

func TestMissingFile(t *testing.T) {
	if err := run(io.Discard, []string{filepath.Join(t.TempDir(), "nope.trace")}, "", 10, "", false, ""); err == nil {
		t.Fatal("want error for missing trace file")
	}
}
