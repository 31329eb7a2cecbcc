package main

// End-to-end fleet test: one run() in -coordinator mode, two run()s in
// -worker mode joined to it, a job submitted over real HTTP and
// completed entirely by leased rows, then everything shuts down
// cleanly.

import (
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDaemonFleetMode(t *testing.T) {
	dir := t.TempDir()
	co := cliOptions{
		addr:        "127.0.0.1:0",
		stateDir:    dir + "/coord",
		runners:     1,
		workers:     2,
		maxJobs:     4,
		burst:       4,
		drainGrace:  2 * time.Second,
		coordinator: true,
		leaseTTL:    5 * time.Second,
		traceOut:    dir + "/fleet.trace",
	}
	ready := make(chan string, 1)
	co.ready = func(baseURL string) { ready <- baseURL }

	ctx, cancel := context.WithCancel(context.Background())
	coordErr := make(chan error, 1)
	go func() { coordErr <- run(ctx, co) }()

	var base string
	select {
	case base = <-ready:
	case err := <-coordErr:
		t.Fatalf("coordinator exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never became ready")
	}

	// Two workers join the fleet under their own lifecycle.
	wctx, wcancel := context.WithCancel(context.Background())
	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wo := cliOptions{
			worker:     true,
			join:       base,
			stateDir:   dir + "/w" + string(rune('0'+i)),
			workers:    2,
			workerName: "w" + string(rune('0'+i)),
		}
		go func() { workerErr <- run(wctx, wo) }()
	}

	// Submit a job; only the fleet can complete it — the coordinator
	// process runs no local executor in -coordinator mode.
	body := `{"suite":"microbench","space":{"cus":[4,24],"core_mhz":[200,1000],"mem_mhz":[150,1250]}}`
	res, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit = %d %+v", res.StatusCode, st)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		res, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if st.State == "complete" {
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("fleet job settled %q", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet job never completed; last state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The matrix downloads as usual — clients cannot tell a fleet ran it.
	res, err = http.Get(base + "/v1/jobs/" + st.ID + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !strings.HasPrefix(string(csv), "kernel,") {
		t.Fatalf("matrix = %d %.40q", res.StatusCode, csv)
	}

	// One journal per job on the primary: serve's, which the
	// coordinator appended the fleet's rows to.
	var journals []string
	err = filepath.WalkDir(co.stateDir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".journal") {
			journals = append(journals, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(co.stateDir, st.ID+".journal"); len(journals) != 1 || journals[0] != want {
		t.Fatalf("coordinator state holds journals %v, want only %s", journals, want)
	}

	// Lease-protocol metrics ride the shared /metrics endpoint.
	res, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(metrics), "dist_rows_completed_total") {
		t.Fatalf("metrics missing lease counters:\n%.400s", metrics)
	}

	// Workers stop on their signal; the coordinator drains with exit 0.
	wcancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerErr:
			if err != nil {
				t.Fatalf("worker exit = %v, want nil", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("worker never stopped")
		}
	}
	cancel()
	select {
	case err := <-coordErr:
		if err != nil {
			t.Fatalf("coordinator drain exit = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never drained")
	}

	// -trace-out captured the lease lifecycle for sweeptrace.
	trace, err := os.ReadFile(co.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"lease"`) || !strings.Contains(string(trace), `"complete"`) {
		t.Fatalf("trace missing lease lifecycle events:\n%.400s", trace)
	}
}
