package serve

// Chaos soak: concurrent clients hammer the service over real HTTP
// while the fault injector breaks simulations (errors, panics,
// latency) and tears journal writes, and the daemon is drained and
// restarted mid-soak. The invariants under test are the service's
// whole contract:
//
//   - no admitted job is lost: every 202'd ID ends terminal
//   - no job completes twice: exactly one terminal record per ID
//   - every refusal is accounted: client-observed sheds == shed counters
//   - the admission bound holds: open jobs never exceed MaxJobs
//
// The default soak is a few hundred milliseconds so `go test` stays
// fast; `make soak-smoke` (and CI) run it under -race, and
// GPUSCALE_SOAK_MS extends it for longer drills.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gpuscale/internal/fault"
)

func soakDuration() time.Duration {
	if ms, err := strconv.Atoi(os.Getenv("GPUSCALE_SOAK_MS")); err == nil && ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return 400 * time.Millisecond
}

func TestChaosSoak(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir:          dir,
		Runners:      2,
		SweepWorkers: 2,
		MaxJobs:      4,
		ClientCap:    2,
		Retries:      3,
		Backoff:      time.Millisecond,
		DrainGrace:   50 * time.Millisecond,
		// Torn journal writes fail whole group appends, whose rows the
		// terminal records then carry, across the drain and restart. A
		// journal's tears roll on its file name and its own write
		// count, so journals tear at different writes: at seed 3 and
		// rate 0.1, about one job in ten tears its header, which is
		// written once more, so about one in a hundred (torn again)
		// fails opening its journal, and about one in thirteen loses a
		// group append.
		Injector: fault.Injector{
			ErrorRate:     0.05,
			PanicRate:     0.01,
			LatencyRate:   0.5,
			Latency:       2 * time.Millisecond,
			TornWriteRate: 0.1,
			Seed:          3,
		},
	}
	spec := testSpec(t)
	specBytes, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	// Clients resolve the current server URL per request; during the
	// restart window requests simply fail and are retried.
	var baseURL atomic.Value
	baseURL.Store(ts1.URL)

	var (
		stop      atomic.Bool
		mu        sync.Mutex
		admitted  []string
		shedSeen  uint64
		lostRes   uint64
		boundErrs atomic.Uint64
	)
	client := &http.Client{Timeout: 5 * time.Second}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for !stop.Load() {
				req, err := http.NewRequest("POST", baseURL.Load().(string)+"/v1/jobs", bytes.NewReader(specBytes))
				if err != nil {
					continue
				}
				req.Header.Set("X-Client", name)
				res, err := client.Do(req)
				if err != nil {
					// Restart window: back off briefly and retry. An
					// error on an established connection (anything but
					// a refused dial) may have severed a response the
					// server already accounted — the old incarnation's
					// Close races its final handlers — so remember how
					// many shed responses could have been lost.
					if !errors.Is(err, syscall.ECONNREFUSED) {
						mu.Lock()
						lostRes++
						mu.Unlock()
					}
					time.Sleep(5 * time.Millisecond)
					continue
				}
				switch res.StatusCode {
				case http.StatusAccepted:
					var st JobStatus
					if err := json.NewDecoder(res.Body).Decode(&st); err == nil {
						mu.Lock()
						admitted = append(admitted, st.ID)
						n := len(admitted)
						mu.Unlock()
						// Keep some churn: cancel every 5th job.
						if n%5 == 0 {
							dreq, _ := http.NewRequest("DELETE", baseURL.Load().(string)+"/v1/jobs/"+st.ID, nil)
							if dres, err := client.Do(dreq); err == nil {
								dres.Body.Close()
							}
						}
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					mu.Lock()
					shedSeen++
					mu.Unlock()
					time.Sleep(2 * time.Millisecond)
				}
				res.Body.Close()
			}
		}("client-" + strconv.Itoa(c))
	}
	// Monitor: the open-jobs gauge must never exceed the bound, on
	// either incarnation of the service.
	activeSvc := atomic.Pointer[Service]{}
	activeSvc.Store(s1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if got := activeSvc.Load().met.openJobs.Value(); got > float64(cfg.MaxJobs) {
				boundErrs.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	dur := soakDuration()
	time.Sleep(dur / 2)

	// Mid-soak restart: drain (interrupting in-flight jobs after a
	// short grace), close the listener, bring a fresh service up on the
	// same directory. Clients keep firing the whole time.
	drain(t, s1)
	ts1.Close() // blocks until in-flight requests finish, so the counters are final
	s1Shed := shedTotal(s1)
	s1Done := doneTotal(s1)
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	activeSvc.Store(s2)
	ts2 := httptest.NewServer(s2.Handler())
	baseURL.Store(ts2.URL)

	time.Sleep(dur / 2)
	stop.Store(true)
	wg.Wait()

	// Let the survivor settle everything that was admitted, then stop.
	waitFor(t, 60*time.Second, "all jobs to settle", func() bool {
		for _, st := range s2.List() {
			if !st.State.Terminal() {
				return false
			}
		}
		return true
	})
	drain(t, s2)
	ts2.Close()

	if n := boundErrs.Load(); n != 0 {
		t.Errorf("open-jobs gauge exceeded MaxJobs %d times", n)
	}

	// No job lost, none double-recorded: every 202'd ID is terminal in
	// the final table, IDs are unique, and each has exactly one state
	// record on disk.
	final := map[string]JobStatus{}
	for _, st := range s2.List() {
		final[st.ID] = st
	}
	mu.Lock()
	got := admitted
	mu.Unlock()
	seen := map[string]bool{}
	for _, id := range got {
		if seen[id] {
			t.Errorf("job ID %s handed out twice", id)
		}
		seen[id] = true
		st, ok := final[id]
		if !ok {
			t.Errorf("admitted job %s lost across restart", id)
			continue
		}
		if !st.State.Terminal() {
			t.Errorf("job %s never settled: %+v", id, st)
		}
		if _, err := os.Stat(s2.statePath(id)); err != nil {
			t.Errorf("job %s has no terminal record: %v", id, err)
		}
	}
	if len(got) == 0 {
		t.Fatal("soak admitted zero jobs — the drill exercised nothing")
	}

	// Shed accounting: every refusal a client saw is in a counter, and
	// counters may lead what clients observed only by responses the
	// restart race severed in flight.
	wantShed := s1Shed + shedTotal(s2)
	mu.Lock()
	observed, lost := shedSeen, lostRes
	mu.Unlock()
	if observed > wantShed || wantShed > observed+lost {
		t.Errorf("clients saw %d sheds (%d responses possibly lost), counters account %d", observed, lost, wantShed)
	}
	// Completion accounting: terminal jobs across both incarnations
	// equal the admitted count (the two services never double-count a
	// job because terminal jobs are never re-run).
	if total := s1Done + doneTotal(s2); total != uint64(len(got)) {
		t.Errorf("serve_jobs_done_total across restarts = %d, want %d", total, len(got))
	}
	t.Logf("soak: %d admitted, %d shed, restart mid-way, all settled", len(got), observed)
}

func shedTotal(s *Service) uint64 {
	var n uint64
	for _, c := range s.met.shed {
		n += c.Value()
	}
	return n
}

func doneTotal(s *Service) uint64 {
	var n uint64
	for _, c := range s.met.done {
		n += c.Value()
	}
	return n
}
