package dist

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/obs"
)

// tracedFleet runs a coordinator plus n workers, each process with its
// own sink (as separate OS processes would have): a trace writer, and
// for each worker a file-backed flight recorder, until the job completes
// or ctx fires. It returns the per-process event streams and the
// flight-ring paths.
func tracedFleet(t *testing.T, job Job, n int) (coordEvs []obs.Event, workerEvs [][]obs.Event, flightPaths []string, coord *Coordinator) {
	t.Helper()
	dir := t.TempDir()

	var coordBuf bytes.Buffer
	coordTW := obs.NewTraceWriter(&coordBuf)
	coordTW.SetProcess("coordinator")

	coord, err := NewCoordinator(dir+"/coord", CoordinatorOptions{DefaultTTL: testTTL, Sink: obs.NewSink(coordTW, nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	if err := coord.AddJob(withJournal(t, coord.dir, job)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	bufs := make([]*bytes.Buffer, n)
	for i := 0; i < n; i++ {
		name := string(rune('A' + i))
		bufs[i] = &bytes.Buffer{}
		tw := obs.NewTraceWriter(bufs[i])
		tw.SetProcess(name)
		fp := filepath.Join(dir, "flight-"+name+".ring")
		fr, err := obs.OpenFlightRecorder(fp, 128, obs.DefaultFlightSlotSize)
		if err != nil {
			t.Fatal(err)
		}
		flightPaths = append(flightPaths, fp)
		w, err := NewWorker(WorkerOptions{
			Name: name, Peers: []string{srv.URL},
			Client: srv.Client(), SweepWorkers: 2, Retries: 2,
			IdleSleep: 5 * time.Millisecond,
			Sink:      obs.NewSink(tw, fr),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer fr.Close()
			defer tw.Flush()
			w.Run(ctx)
		}()
	}
	deadline := time.After(60 * time.Second)
	for {
		if st, ok := coord.Status(job.Name); ok && st.Complete {
			break
		}
		select {
		case <-deadline:
			cancel()
			wg.Wait()
			st, _ := coord.Status(job.Name)
			t.Fatalf("fleet never finished: %+v", st)
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	wg.Wait()
	coordTW.Flush()

	coordEvs, err = obs.ReadEvents(&coordBuf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		evs, err := obs.ReadEvents(bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		workerEvs = append(workerEvs, evs)
	}
	return coordEvs, workerEvs, flightPaths, coord
}

// TestFleetTraceStitchesAcrossProcesses is the tentpole acceptance
// check: one job through a coordinator and two workers yields a single
// trace ID whose spans link parent-to-child across process boundaries
// — job root -> lease grants (coordinator) -> row spans (workers) ->
// the row sweeps' events — and the coordinator's complete instants
// account for every row exactly once.
func TestFleetTraceStitchesAcrossProcesses(t *testing.T) {
	job := testJob(t, "traced", 4)
	coordEvs, workerEvs, _, coord := tracedFleet(t, job, 2)

	traceID := coord.TraceID(job.Name)
	if len(traceID) != 32 {
		t.Fatalf("job should carry a 32-hex trace ID, got %q", traceID)
	}

	var all []obs.Event
	all = append(all, coordEvs...)
	for _, evs := range workerEvs {
		all = append(all, evs...)
	}

	// Every trace-carrying event from every process is on THE trace.
	leaseSpans := map[string]bool{} // span ID -> granted by coordinator
	rowSpans := map[string]bool{}
	jobRoot := ""
	completes := map[int]int{}
	for _, e := range all {
		if e.Trace == "" {
			continue
		}
		if e.Trace != traceID {
			t.Fatalf("event %s on trace %s, want %s", e.Name, e.Trace, traceID)
		}
		switch e.Name {
		case "lease", "steal":
			if e.Span == "" || e.Parent == "" {
				t.Fatalf("lease grant missing span identity: %+v", e)
			}
			leaseSpans[e.Span] = true
			if jobRoot == "" {
				jobRoot = e.Parent
			} else if e.Parent != jobRoot {
				t.Fatalf("lease parent %s != job root %s", e.Parent, jobRoot)
			}
		case "row":
			// The dist row span only — the sweep layer emits its own
			// span-less "row" leaf event under the same name.
			if e.Cat == "dist" {
				rowSpans[e.Span] = true
			}
		case "complete":
			r := int(e.Args["row"].(float64))
			completes[r]++
		}
	}

	// Cross-process links: every worker row span hangs off a
	// coordinator-minted lease span; every sweep event — one sweep row
	// per dist row — hangs off a dist row span and has no span of its
	// own.
	sweepRows := 0
	for i, evs := range workerEvs {
		for _, e := range evs {
			if e.Trace == "" {
				continue
			}
			switch {
			case e.Name == "row" && e.Cat == "dist":
				if !leaseSpans[e.Parent] {
					t.Fatalf("worker %d row span parent %q is not a coordinator lease span", i, e.Parent)
				}
			case e.Cat == "sweep":
				if !rowSpans[e.Parent] || e.Span != "" {
					t.Fatalf("worker %d sweep event %s hangs off %q, not a dist row span (own span %q)", i, e.Name, e.Parent, e.Span)
				}
				if e.Name == "row" {
					sweepRows++
				}
			}
		}
	}
	if sweepRows < len(rowSpans) || len(rowSpans) < len(job.Kernels) {
		t.Fatalf("%d sweep row events for %d dist row spans of %d rows", sweepRows, len(rowSpans), len(job.Kernels))
	}

	// Exactly-once: every row completed once, no more, no less.
	if len(completes) != len(job.Kernels) {
		t.Fatalf("completed %d rows, want %d: %v", len(completes), len(job.Kernels), completes)
	}
	for r, n := range completes {
		if n != 1 {
			t.Fatalf("row %d completed %d times", r, n)
		}
	}
}

// TestKilledWorkerFlightMatchesLedger is the crash-forensics
// acceptance check: a worker that dies without any shutdown hook (its
// flight ring is written per-event, never at exit) leaves a ring whose
// lease history matches the coordinator's view of that worker's
// leases — every row the flight claims completed-and-accepted is a row
// the coordinator's trace shows accepted from that worker. The ring
// names the completion "row", like the trace: the dist row event is
// the one carrying the coordinator's verdict.
func TestKilledWorkerFlightMatchesLedger(t *testing.T) {
	job := testJob(t, "killed", 5)
	coordEvs, _, flightPaths, _ := tracedFleet(t, job, 2)

	// The fleet has exited; read worker A's ring straight off disk, the
	// way `gpuscaled -flight-dump <path>` does post-mortem.
	evs, err := obs.ReadFlightFile(flightPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("worker A recorded no flight events")
	}

	// Coordinator's ledger view: rows accepted from worker A.
	ledger := map[int]bool{}
	for _, e := range coordEvs {
		if e.Name == "complete" && e.Args["worker"] == "A" {
			ledger[int(e.Args["row"].(float64))] = true
		}
	}

	acquired, completed := 0, 0
	for _, fe := range evs {
		switch fe.Kind {
		case "lease.acquired":
			acquired++
		case "row":
			acc, dist := fe.Args["accepted"].(bool)
			if !dist {
				continue // the row sweep's own row event
			}
			completed++
			if row := int(fe.Args["row"].(float64)); acc && !ledger[row] {
				t.Fatalf("flight says row %d accepted, coordinator ledger disagrees", row)
			}
		}
	}
	if acquired == 0 || completed == 0 {
		t.Fatalf("flight ring recorded %d lease.acquired and %d completed row events", acquired, completed)
	}
	if completed > acquired {
		t.Fatalf("flight ring: %d completes for %d acquires", completed, acquired)
	}
}
