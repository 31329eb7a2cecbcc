package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
	"gpuscale/internal/serve"
	"gpuscale/internal/sweep"
)

func TestRunSuiteSubsetWithCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results.csv")
	if _, err := run(context.Background(), cliOptions{out: out, suite: "graphana", engine: "round", seed: 1}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "kernel,cus,core_mhz,mem_mhz") {
		t.Fatalf("CSV header missing: %.80s", s)
	}
	if !strings.Contains(s, "graphana-p01") {
		t.Fatal("CSV missing suite kernels")
	}
	// 24 kernels x 891 configs + header.
	lines := strings.Count(s, "\n")
	if lines != 24*891+1 {
		t.Fatalf("CSV lines = %d, want %d", lines, 24*891+1)
	}
}

func TestRunNoise(t *testing.T) {
	if _, err := run(context.Background(), cliOptions{suite: "dwarfs", engine: "round", noise: 0.05, seed: 7, workers: 2}); err != nil {
		t.Fatalf("noisy run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	bg := context.Background()
	if _, err := run(bg, cliOptions{suite: "nope", engine: "round"}); err == nil {
		t.Error("unknown suite accepted")
	}
	if _, err := run(bg, cliOptions{engine: "quantum"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := run(bg, cliOptions{out: "/no/such/dir/x.csv", suite: "graphana", engine: "round"}); err == nil {
		t.Error("unwritable output accepted")
	}
	if _, err := run(bg, cliOptions{engine: "round", resume: true}); err == nil {
		t.Error("-resume without -o accepted")
	}
	if _, err := run(bg, cliOptions{engine: "round", faultRate: 1.5}); err == nil {
		t.Error("fault rate above 1 accepted")
	}
}

func TestRunFaultInjectionWithRetriesCompletes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "faulty.csv")
	o := cliOptions{
		out: out, suite: "graphana", engine: "round",
		faultRate: 0.05, faultSeed: 3, retries: 5,
	}
	if _, err := run(context.Background(), o); err != nil {
		t.Fatalf("faulty run with retries: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := sweep.ReadCSV(f, hw.StudySpace())
	if err != nil {
		t.Fatalf("archived CSV unreadable: %v", err)
	}
	for r := range m.Kernels {
		if !m.RowComplete(r) {
			t.Fatalf("kernel %s has failed cells despite retries", m.Kernels[r])
		}
	}
}

func TestRunResumeJournalCompletesAcrossRuns(t *testing.T) {
	out := filepath.Join(t.TempDir(), "journal.csv")
	space := hw.StudySpace()
	// First pass: faults on, no retries — with 891 cells per row a
	// 0.1% rate fails roughly half the rows, which then stay out of
	// the journal. The run reports the incompleteness.
	first := cliOptions{
		out: out, suite: "graphana", engine: "round",
		faultRate: 0.001, faultSeed: 11, resume: true,
	}
	_, err := run(context.Background(), first)
	if err == nil {
		t.Fatal("faulty pass with no retries completed; expected an incomplete journal error")
	}
	j, err := sweep.OpenJournal(out, space)
	if err != nil {
		t.Fatalf("journal unreadable between runs: %v", err)
	}
	partial := j.Prior()
	j.Close()
	if partial == nil || len(partial.Kernels) == 0 || len(partial.Kernels) >= 24 {
		n := 0
		if partial != nil {
			n = len(partial.Kernels)
		}
		t.Fatalf("journal holds %d/24 rows; expected a strict subset to survive the fault storm", n)
	}

	// Second pass: faults off, resume — only the holes are recomputed
	// and the journal must end complete.
	second := cliOptions{out: out, suite: "graphana", engine: "round", resume: true}
	if _, err := run(context.Background(), second); err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := sweep.ReadCSV(f, space)
	if err != nil {
		t.Fatalf("resumed journal is not a complete archive: %v", err)
	}
	if len(m.Kernels) != 24 {
		t.Fatalf("resumed journal has %d kernels, want 24", len(m.Kernels))
	}
}

// metricValue extracts one series value from a Prometheus exposition.
func metricValue(t *testing.T, text, series string) uint64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %s not found in exposition:\n%s", series, text)
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestObservedFaultySweepEndToEnd is the acceptance drill for the
// telemetry layer: a faulty sweep run with -trace-out, -metrics-addr
// and -progress must produce (1) a parseable JSONL trace, (2) a live
// /metrics exposition whose retry and fault counters agree with the
// trace, (3) a /progress ETA — and (4) a CSV byte-identical to the
// same sweep run with no observability at all. (5) Without faults the
// trace holds row events and the sweep's start and end, nothing else.
func TestObservedFaultySweepEndToEnd(t *testing.T) {
	dir := t.TempDir()
	plainCSV := filepath.Join(dir, "plain.csv")
	obsCSV := filepath.Join(dir, "observed.csv")
	tracePath := filepath.Join(dir, "run.trace")

	base := cliOptions{
		suite: "graphana", engine: "round",
		faultRate: 0.05, faultSeed: 3, retries: 6,
	}
	plain := base
	plain.out = plainCSV
	if _, err := run(context.Background(), plain); err != nil {
		t.Fatalf("unobserved run: %v", err)
	}

	observed := base
	observed.out = obsCSV
	observed.traceOut = tracePath
	observed.metricsAddr = "127.0.0.1:0"
	observed.progress = true
	var metricsText string
	var progress map[string]any
	observed.probe = func(baseURL string) error {
		res, err := http.Get(baseURL + "/healthz")
		if err != nil {
			return err
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			return fmt.Errorf("/healthz status %d", res.StatusCode)
		}
		res, err = http.Get(baseURL + "/metrics")
		if err != nil {
			return err
		}
		b, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			return err
		}
		if res.StatusCode != http.StatusOK {
			return fmt.Errorf("/metrics status %d", res.StatusCode)
		}
		metricsText = string(b)
		res, err = http.Get(baseURL + "/progress")
		if err != nil {
			return err
		}
		defer res.Body.Close()
		return json.NewDecoder(res.Body).Decode(&progress)
	}
	if _, err := run(context.Background(), observed); err != nil {
		t.Fatalf("observed run: %v", err)
	}

	// (4) Zero change to the resulting matrix.
	a, err := os.ReadFile(plainCSV)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(obsCSV)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("observability changed the measured matrix")
	}

	// (1) The trace parses and carries the expected span families.
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(tf)
	tf.Close()
	if err != nil {
		t.Fatalf("trace not parseable JSONL: %v", err)
	}
	// The trace is row-grained: one row event per kernel, and the only
	// per-cell events are the retries and the faults that caused them.
	spans := map[string]int{}
	for _, e := range evs {
		spans[e.Name]++
		if n, _ := e.Args["attempt"].(float64); e.Name == "attempt" && n < 2 {
			t.Fatalf("first attempt traced: %+v", e)
		}
	}
	traceRetries, traceFaults := spans["attempt"], spans["fault"]
	if spans["row"] != 24 || spans["sweep"] != 1 || spans["sweep.start"] != 1 || traceFaults == 0 || traceRetries == 0 ||
		len(evs) != 24+2+traceRetries+traceFaults+spans["journal.append"] {
		t.Fatalf("trace span census %v (retries %d, faults %d)", spans, traceRetries, traceFaults)
	}

	// (2) /metrics agrees with the trace (and therefore the report:
	// internal/sweep asserts counters == RunReport directly).
	gotRetries := metricValue(t, metricsText, `sweep_retries_total`)
	if gotRetries != uint64(traceRetries) {
		t.Fatalf("/metrics retries %d != trace retries %d", gotRetries, traceRetries)
	}
	gotFaults := metricValue(t, metricsText, `fault_injected_total{kind="error"}`)
	if gotFaults != uint64(traceFaults) {
		t.Fatalf("/metrics faults %d != trace faults %d", gotFaults, traceFaults)
	}
	// Every injected error forced an extra attempt: with full recovery
	// the two books must balance.
	if gotFaults != gotRetries {
		t.Fatalf("fault counter %d != retry counter %d on a fully recovered sweep", gotFaults, gotRetries)
	}
	if ok := metricValue(t, metricsText, `sweep_cells_done_total{status="ok"}`); ok != 24*891 {
		t.Fatalf("/metrics ok cells = %d, want %d", ok, 24*891)
	}

	// (3) /progress reports a finished campaign.
	if progress["done"] != float64(24*891) || progress["total"] != float64(24*891) {
		t.Fatalf("/progress = %v", progress)
	}
	if _, ok := progress["eta_seconds"]; !ok {
		t.Fatal("/progress missing eta_seconds")
	}
	line, _ := progress["line"].(string)
	if !strings.Contains(line, "cells/s") {
		t.Fatalf("/progress line = %q", line)
	}

	// (5) A fault-free traced sweep writes one row event per kernel
	// plus the sweep's start and end, and nothing per cell.
	clean := cliOptions{suite: "graphana", engine: "round", traceOut: filepath.Join(dir, "clean.trace")}
	if _, err := run(context.Background(), clean); err != nil {
		t.Fatalf("fault-free traced run: %v", err)
	}
	cf, err := os.Open(clean.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	cleanEvs, err := obs.ReadEvents(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	census := map[string]int{}
	for _, e := range cleanEvs {
		census[e.Name]++
	}
	if want := map[string]int{"row": 24, "sweep.start": 1, "sweep": 1}; !reflect.DeepEqual(census, want) {
		t.Fatalf("fault-free trace census %v, want %v", census, want)
	}
}

func TestRunCSVToStdout(t *testing.T) {
	// -o - must put only CSV on stdout; diagnostics go to stderr.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	_, runErr := run(context.Background(), cliOptions{out: "-", suite: "graphana", engine: "round"})
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatalf("run -o -: %v", runErr)
	}
	if !strings.HasPrefix(out, "kernel,cus,core_mhz,mem_mhz") {
		t.Fatalf("stdout is not a clean CSV pipe: %.80s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 24*891+1 {
		t.Fatalf("stdout CSV lines = %d, want %d", lines, 24*891+1)
	}
	if strings.Contains(out, "swept ") || strings.Contains(out, "progress:") {
		t.Fatal("diagnostics leaked onto stdout")
	}
}

func TestRunStdoutResumeRejected(t *testing.T) {
	if _, err := run(context.Background(), cliOptions{out: "-", engine: "round", resume: true}); err == nil {
		t.Fatal("-resume with -o - accepted")
	}
}

func TestCorpusDumpAndReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.json")
	if err := writeCorpus(path); err != nil {
		t.Fatalf("dump: %v", err)
	}
	ks, err := loadCorpus(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(ks) != 267 {
		t.Fatalf("reloaded %d kernels, want 267", len(ks))
	}
	// A tiny custom corpus must sweep end to end.
	small := filepath.Join(dir, "small.json")
	f, err := os.Create(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := kernel.WriteAll(f, ks[:3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := filepath.Join(dir, "out.csv")
	if _, err := run(context.Background(), cliOptions{out: out, engine: "round", corpusFile: small}); err != nil {
		t.Fatalf("custom-corpus sweep: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 3*891+1 {
		t.Fatalf("CSV lines = %d, want %d", lines, 3*891+1)
	}
}

func TestCorpusFlagConflicts(t *testing.T) {
	bg := context.Background()
	if _, err := run(bg, cliOptions{suite: "graphana", engine: "round", corpusFile: "also.json"}); err == nil {
		t.Error("-corpus with -suite accepted")
	}
	if _, err := run(bg, cliOptions{engine: "round", corpusFile: "/no/such/corpus.json"}); err == nil {
		t.Error("missing corpus file accepted")
	}
}

// TestDumpJournalMatchesMatrix: -dump-journal prints a gpuscaled job's
// journal as the CSV the job's /matrix serves, byte for byte (one
// sweep worker journals the rows in kernel order, the matrix's order),
// reads the journal against the space its own space record names, and
// refuses a file that is not a journal.
func TestDumpJournalMatchesMatrix(t *testing.T) {
	dir := t.TempDir()
	s, err := serve.New(serve.Config{Dir: dir, SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	st, err := s.Submit("t", serve.JobSpec{Suite: "graphana", Noise: 0.05, Seed: 3,
		Space: &hw.Space{CUCounts: []int{4, 24}, CoreClocksMHz: []float64{200, 1000}, MemClocksMHz: []float64{150, 1250}}})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !st.State.Terminal(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", st.ID)
		}
		if st, err = s.Get(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	res, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("/matrix = %d (%v)", res.StatusCode, err)
	}
	var got bytes.Buffer
	if err := writeJournalCSV(&got, filepath.Join(dir, st.ID+".journal")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the dumped journal (%d bytes) differs from the job's /matrix (%d bytes)", got.Len(), len(want))
	}
	if err := writeJournalCSV(io.Discard, filepath.Join(dir, st.ID+".job")); err == nil {
		t.Fatal("an admission record dumped as a journal")
	}
}
