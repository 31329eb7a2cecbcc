package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/gcn"
	"gpuscale/internal/sweep"
)

// postJob submits spec as client over the test server and returns the
// response.
func postJob(t *testing.T, ts *httptest.Server, client string, spec JobSpec) *http.Response {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client", client)
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func decodeStatus(t *testing.T, res *http.Response) JobStatus {
	t.Helper()
	defer res.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPJobLifecycle(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := postJob(t, ts, "alice", testSpec(t))
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", res.StatusCode)
	}
	st := decodeStatus(t, res)
	if st.ID == "" || st.Client != "alice" {
		t.Fatalf("submit status = %+v", st)
	}

	waitFor(t, 30*time.Second, "job to complete over HTTP", func() bool {
		res, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		got := decodeStatus(t, res)
		return got.State == StateComplete
	})

	// The list includes it.
	res, err = ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	// The matrix downloads as CSV.
	res, err = ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "kernel,") {
		t.Fatalf("matrix = %d %.40q", res.StatusCode, body)
	}

	// Health endpoints and metrics respond.
	for path, want := range map[string]int{
		"/healthz": http.StatusOK,
		"/readyz":  http.StatusOK,
		"/metrics": http.StatusOK,
	} {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, res.StatusCode, want)
		}
	}
	res, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), "serve_jobs_admitted_total 1") {
		t.Fatalf("metrics missing admission counter:\n%s", body)
	}
}

func TestHTTPShedCarriesRetryAfter(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1, MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := postJob(t, ts, "alice", testSpec(t))
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", res.StatusCode)
	}
	res = postJob(t, ts, "alice", testSpec(t))
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-bound submit = %d, want 503", res.StatusCode)
	}
	if ra := res.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive hint", ra)
	}
	var e apiError
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Reason != string(ShedQueueFull) {
		t.Fatalf("shed reason = %q, want %q", e.Reason, ShedQueueFull)
	}
}

func TestHTTPRateLimitReturns429(t *testing.T) {
	now := time.Unix(1000, 0)
	s, err := New(Config{Dir: t.TempDir(), Runners: -1, Rate: 1, Burst: 1,
		Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res := postJob(t, ts, "alice", testSpec(t))
	res.Body.Close()
	res = postJob(t, ts, "alice", testSpec(t))
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submit = %d, want 429", res.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Garbage body.
	res, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body = %d, want 400", res.StatusCode)
	}
	// Unknown field: the API is strict so typos fail loudly.
	res, err = ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"suiet":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", res.StatusCode)
	}
	// Unresolvable spec.
	res = postJob(t, ts, "alice", JobSpec{Suite: "no-such-suite"})
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", res.StatusCode)
	}
	// Unknown job: status, cancel, matrix.
	for _, m := range []struct{ method, path string }{
		{"GET", "/v1/jobs/job-999999"},
		{"DELETE", "/v1/jobs/job-999999"},
		{"GET", "/v1/jobs/job-999999/matrix"},
	} {
		req, _ := http.NewRequest(m.method, ts.URL+m.path, nil)
		res, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", m.method, m.path, res.StatusCode)
		}
	}
}

func TestHTTPCancel(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st := decodeStatus(t, postJob(t, ts, "alice", testSpec(t)))
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeStatus(t, res)
	if res.StatusCode != http.StatusOK || got.State != StateCanceled {
		t.Fatalf("cancel = %d %+v", res.StatusCode, got)
	}
}

func TestHTTPReadyzFlipsDuringDrain(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drain(t, s)
	res, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", res.StatusCode)
	}
	// Liveness is unaffected: the process still serves.
	res, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", res.StatusCode)
	}
	// Submissions shed with 503.
	res = postJob(t, ts, "alice", testSpec(t))
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", res.StatusCode)
	}
}

func TestHandlerPanicsAreIsolated(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	for i := 1; i <= 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("panicking handler = %d, want 500", rec.Code)
		}
		if got := s.met.panics.Value(); got != uint64(i) {
			t.Fatalf("serve_handler_panics_total = %d after %d panics", got, i)
		}
	}
}

func TestHTTPPartialMatrixWhileRunning(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), SweepWorkers: 1, Injector: slowInjector()})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st := decodeStatus(t, postJob(t, ts, "alice", testSpec(t)))
	waitFor(t, 10*time.Second, "first row", func() bool {
		got, err := s.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return got.RowsDone >= 1 && !got.State.Terminal()
	})
	res, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("partial matrix = %d, want 200", res.StatusCode)
	}
	if !strings.Contains(string(body), ",ok") {
		t.Fatalf("partial matrix has no settled cells:\n%.200s", body)
	}
}

// TestHTTPMatrixRefusesMalformedRecord: a terminal record is read from
// disk on every /matrix fetch, so a row in it whose planes do not match
// the job's space — a damaged or hand-edited record — must be refused
// before anything is written (a 404), not render, on every fetch, and
// leave the daemon answering.
func TestHTTPMatrixRefusesMalformedRecord(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, err := s.Submit("alice", testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s, st.ID); got.State != StateComplete {
		t.Fatalf("job = %+v, want complete", got)
	}
	b, err := os.ReadFile(s.statePath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	var sf stateFile
	if err := json.Unmarshal(b, &sf); err != nil {
		t.Fatal(err)
	}
	sf.Unjournaled = map[int]sweep.Row{1: {Throughput: []float64{1}, TimeNS: []float64{2},
		Bound: []gcn.Bound{0}, Status: []sweep.CellStatus{sweep.StatusFailed}}}
	if b, err = json.Marshal(sf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.statePath(st.ID), b, 0o644); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		res, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/matrix")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound || bytes.HasPrefix(body, []byte("kernel,")) {
			t.Fatalf("/matrix of a record with a short row = %d %q, want a 404 and no CSV", res.StatusCode, body)
		}
	}
	res, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeStatus(t, res); got.State != StateComplete {
		t.Fatalf("status after the refused fetches = %+v", got)
	}
}
