package main

// Fleet breakdown: sweeptrace over coordinator + worker traces from a
// real (in-process) distributed sweep shows per-worker rows, leases
// and renewal latency, and merging multiple trace files works.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/dist"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
	"gpuscale/internal/sweep"
)

// writeFleetTraces runs a 2-worker distributed sweep with every party
// tracing, and returns the coordinator's and workers' trace paths.
func writeFleetTraces(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	space, err := hw.NewSpace([]int{4, 24}, []float64{200, 1000}, []float64{150, 1250})
	if err != nil {
		t.Fatal(err)
	}
	var ks []*kernel.Kernel
	for i := 0; i < 4; i++ {
		ks = append(ks, kernel.New("s", "p", fmt.Sprintf("k%d", i)).Geometry(256+64*i, 256).MustBuild())
	}
	job := dist.Job{Name: "trace", Kernels: ks, Space: space, Seed: 11, NoiseStdDev: 0.05}

	var paths []string
	var files []*os.File
	var writers []*obs.TraceWriter
	newTrace := func(name string) *obs.TraceWriter {
		p := filepath.Join(dir, name+".trace")
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		tw := obs.NewTraceWriter(f)
		paths = append(paths, p)
		files = append(files, f)
		writers = append(writers, tw)
		return tw
	}

	coord, err := dist.NewCoordinator(dir+"/coord", dist.CoordinatorOptions{DefaultTTL: 5 * time.Second,
		Sink: obs.NewSink(newTrace("coord"), nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if job.Journal, err = sweep.OpenJournal(dir+"/coord/trace.journal", space); err != nil {
		t.Fatal(err)
	}
	defer job.Journal.Close()
	if err := coord.AddJob(job); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i)
		w, err := dist.NewWorker(dist.WorkerOptions{
			Name: name, Peers: []string{srv.URL},
			Client:       &http.Client{Timeout: 10 * time.Second},
			SweepWorkers: 2,
			Sink:         obs.NewSink(newTrace(name), nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st, ok := coord.Status(job.Name); ok && st.Complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	for i, tw := range writers {
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := files[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

func TestFleetBreakdown(t *testing.T) {
	paths := writeFleetTraces(t)
	var sb strings.Builder
	if err := run(&sb, paths, "", 10, "", false, ""); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fleet workers") {
		t.Fatalf("merged fleet trace has no fleet table:\n%s", out)
	}
	for _, want := range []string{"w0", "w1", "rows", "leases", "steals", "fenced", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet table missing %q:\n%s", want, out)
		}
	}
	// Rows must sum to the job's kernel count across workers: every
	// row completed exactly once, and the table accounts for all of it.
	_, rest, ok := strings.Cut(out, "Fleet workers")
	if !ok {
		t.Fatal("no fleet section")
	}
	table, _, _ := strings.Cut(rest, "\n\n")
	total := 0
	for _, ln := range strings.Split(table, "\n") {
		f := strings.Fields(ln)
		if len(f) >= 2 && strings.HasPrefix(f[0], "w") && len(f[0]) == 2 {
			var rows int
			if _, err := fmt.Sscan(f[1], &rows); err == nil {
				total += rows
			}
		}
	}
	if total != 4 {
		t.Fatalf("fleet table accounts for %d rows, want 4:\n%s", total, table)
	}

	// A coordinator-only trace still produces the table (rows from
	// accepted completes, no renewal data needed).
	sb.Reset()
	if err := run(&sb, paths[:1], "", 10, "", false, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fleet workers") {
		t.Fatalf("coordinator-only trace has no fleet table:\n%s", sb.String())
	}
}
