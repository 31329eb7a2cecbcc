package main

// End-to-end daemon test: run() on a loopback port, a job submitted
// and completed over real HTTP, then SIGTERM (simulated by canceling
// the signal context) drains cleanly with exit status nil.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/dist"
)

func TestDaemonServesAndDrains(t *testing.T) {
	o := cliOptions{
		addr:       "127.0.0.1:0",
		stateDir:   t.TempDir(),
		runners:    1,
		workers:    2,
		maxJobs:    4,
		burst:      4,
		drainGrace: 2 * time.Second,
	}
	ready := make(chan string, 1)
	o.ready = func(baseURL string) { ready <- baseURL }

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, o) }()

	var base string
	select {
	case base = <-ready:
	case err := <-runErr:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// Liveness and readiness respond.
	for _, path := range []string{"/healthz", "/readyz"} {
		res, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, res.StatusCode)
		}
	}

	// Submit a small job and ride it to completion.
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
	deadline := time.Now().Add(60 * time.Second)
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
			t.Fatalf("job settled %q", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed; last state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err = http.Get(base + "/v1/jobs/" + st.ID + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !strings.HasPrefix(string(csv), "kernel,") {
		t.Fatalf("matrix = %d %.40q", res.StatusCode, csv)
	}

	// SIGTERM: the signal context ends, the daemon drains and exits 0.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drain exit = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained")
	}
}

// TestExitCodeFor: the documented worker exit codes — 4 for "this
// binary cannot join that fleet" (version fence), 5 for "the
// coordinator proved this worker computes wrong answers"
// (quarantine) — survive error wrapping, and everything else is a
// generic 1.
func TestExitCodeFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{dist.ErrVersionFenced, 4},
		{fmt.Errorf("worker liar: %w", dist.ErrVersionFenced), 4},
		{dist.ErrQuarantined, 5},
		{fmt.Errorf("worker liar: %w", dist.ErrQuarantined), 5},
		{errors.New("disk on fire"), 1},
	}
	for _, tc := range cases {
		if got := exitCodeFor(tc.err); got != tc.want {
			t.Fatalf("exitCodeFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestExecutorFlagRefusals: in every mode an executor flag is either
// used or refused at start-up with a usage error naming it — never
// accepted and ignored. A -coordinator uses only -fault-torn-rate, a
// -standby none, a -worker all but -breaker and -fault-torn-rate, and a
// plain daemon all ten.
func TestExecutorFlagRefusals(t *testing.T) {
	flags := []struct {
		name string
		set  func(*cliOptions)
	}{
		{"-retries", func(o *cliOptions) { o.retries = 2 }},
		{"-backoff", func(o *cliOptions) { o.backoff = time.Millisecond }},
		{"-sim-timeout", func(o *cliOptions) { o.simTimeout = time.Second }},
		{"-breaker", func(o *cliOptions) { o.breaker = 3 }},
		{"-workers", func(o *cliOptions) { o.workers = 1 }},
		{"-fault-rate", func(o *cliOptions) { o.faultRate = 0.1 }},
		{"-fault-panic-rate", func(o *cliOptions) { o.panicRate = 0.1 }},
		{"-fault-torn-rate", func(o *cliOptions) { o.tornRate = 0.1 }},
		{"-fault-latency", func(o *cliOptions) { o.latency = time.Millisecond }},
		{"-fault-latency-rate", func(o *cliOptions) { o.latencyRate = 0.1 }},
	}
	modes := []struct {
		name  string
		set   func(*cliOptions)
		usesF func(flag string) bool
	}{
		{"plain", func(*cliOptions) {}, func(string) bool { return true }},
		{"-coordinator", func(o *cliOptions) { o.coordinator = true }, func(f string) bool { return f == "-fault-torn-rate" }},
		{"-standby", func(o *cliOptions) { o.standby = true; o.join = "http://127.0.0.1:1" }, func(string) bool { return false }},
		{"-worker", func(o *cliOptions) { o.worker = true; o.join = "http://127.0.0.1:1" },
			func(f string) bool { return f != "-breaker" && f != "-fault-torn-rate" }},
	}
	for _, m := range modes {
		for _, f := range flags {
			o := cliOptions{stateDir: t.TempDir()}
			m.set(&o)
			f.set(&o)
			err := checkExecutorFlags(o)
			if m.usesF(f.name) {
				if err != nil {
					t.Errorf("%s %s: refused (%v), want it used", m.name, f.name, err)
				}
				continue
			}
			// run refuses it before it opens or serves anything.
			err = run(context.Background(), o)
			if err == nil || !strings.Contains(err.Error(), f.name) || !strings.Contains(err.Error(), m.name) ||
				exitCodeFor(err) != 2 {
				t.Errorf("%s %s: run = %v (exit %d), want a usage error naming the flag and the mode",
					m.name, f.name, err, exitCodeFor(err))
			}
		}
	}
}
