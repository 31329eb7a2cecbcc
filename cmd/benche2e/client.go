package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"time"

	"gpuscale/internal/core"
	"gpuscale/internal/hw"
	"gpuscale/internal/sweep"
)

// timing is one study's measurements, in seconds unless named
// otherwise. Fields a workload does not exercise stay zero.
type timing struct {
	trace    string // the study's trace ID
	job      string // the job ID the primary gave it
	study    float64
	corpus   float64
	sweepRun float64 // library: the RunContext call
	submit   float64
	run      float64 // from the 202 until the client sees a terminal state
	fetch    float64
	parse    float64
	classify float64
	matrixMB float64
	cpuS     float64 // this process's CPU during the study
}

// client runs studies for one workload and seed: in process, or over
// one HTTP connection to the primary.
type client struct {
	w      workload
	seed   int64
	prefix int
	rec    *recorder
	base   string // primary URL; empty for the library workload
	http   *http.Client
	// csv holds the fetched matrix. Reusing it keeps each study from
	// leaving a 32 MB grown buffer behind, whose collection timing
	// would otherwise move the client's peak RSS from run to run.
	csv bytes.Buffer
}

func newClient(w workload, seed int64, prefix int, rec *recorder, base string) *client {
	return &client{w: w, seed: seed, prefix: prefix, rec: rec, base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// study runs one study from corpus build to taxonomy and returns its
// matrix and classifications for verification.
func (c *client) study(ctx context.Context) (*timing, *sweep.Matrix, []core.Classification, error) {
	t := &timing{trace: newTraceID()}
	root := c.rec.spanID()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	s, err := buildStudy(c.w, c.seed, c.prefix, c.base != "")
	if err != nil {
		return t, nil, nil, err
	}
	t.corpus = c.span("corpus", t, root, t0)
	var m *sweep.Matrix
	if c.base == "" {
		m, err = c.runLibrary(ctx, t, root, s)
	} else {
		m, err = c.runRemote(ctx, t, root, s)
	}
	if err != nil {
		return t, nil, nil, err
	}
	t1 := time.Now()
	cls := classify(m)
	t.classify = c.span("classify", t, root, t1)
	t.study = time.Since(t0).Seconds()
	c.rec.add("study", t.trace, root, "", t0, time.Since(t0))
	t.cpuS = cpuSeconds() - cpu0
	return t, m, cls, nil
}

// span records a child span of the study that started at t0 and
// returns its length in seconds.
func (c *client) span(name string, t *timing, parent string, t0 time.Time) float64 {
	d := time.Since(t0)
	c.rec.add(name, t.trace, c.rec.spanID(), parent, t0, d)
	return d.Seconds()
}

func (c *client) runLibrary(ctx context.Context, t *timing, root string, s *study) (*sweep.Matrix, error) {
	opts := sweepOptions(c.w, c.seed)
	id := c.rec.spanID()
	if c.rec != nil {
		opts.Row = timedRow{inner: c.w.engine.Row(), rec: c.rec, trace: t.trace, parent: id}
	}
	t0 := time.Now()
	m, rep, err := sweep.RunContext(ctx, s.kernels, hw.StudySpace(), opts)
	d := time.Since(t0)
	c.rec.add("RunContext", t.trace, id, root, t0, d)
	t.sweepRun = d.Seconds()
	if err != nil {
		return nil, err
	}
	if !rep.Complete() {
		return nil, fmt.Errorf("sweep incomplete: %s", rep.Summary())
	}
	return m, nil
}

// jobStatus is the subset of the job API's status body the client reads.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Reason string `json:"reason"`
}

func (c *client) runRemote(ctx context.Context, t *timing, root string, s *study) (*sweep.Matrix, error) {
	body, err := json.Marshal(map[string]any{
		"kernels": json.RawMessage(s.body), "engine": c.w.engine.String(),
		"noise": noiseSigma, "seed": c.seed,
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	submitID := c.rec.spanID()
	hdr := http.Header{"Content-Type": {"application/json"}}
	if c.rec != nil {
		// The job joins the study's trace as a child of this submit span.
		hdr.Set("Traceparent", "00-"+t.trace+"-"+submitID+"-01")
	}
	var st jobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", hdr, body, http.StatusAccepted, &st); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	t.job = st.ID
	d := time.Since(t0)
	c.rec.add("submit", t.trace, submitID, root, t0, d)
	t.submit = d.Seconds()

	t1 := time.Now()
	for st.State != "complete" {
		switch st.State {
		case "canceled", "failed":
			return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Reason)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, nil, http.StatusOK, &st); err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
	}
	t.run = c.span("run", t, root, t1)

	t2 := time.Now()
	c.csv.Reset()
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/matrix", nil, nil, http.StatusOK, &c.csv); err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	t.fetch = c.span("fetch", t, root, t2)
	t.matrixMB = float64(c.csv.Len()) / (1 << 20)

	t3 := time.Now()
	m, err := sweep.ReadCSV(&c.csv, hw.StudySpace())
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	t.parse = c.span("parse", t, root, t3)
	return m, nil
}

// do makes one API call on the study connection. A *bytes.Buffer out
// receives the raw body; anything else is decoded as JSON.
func (c *client) do(ctx context.Context, method, path string, hdr http.Header, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		_, err = buf.ReadFrom(resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return err
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
