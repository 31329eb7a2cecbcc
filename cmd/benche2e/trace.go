package main

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// event is one line of a Chrome trace-event JSONL file, the format
// every gpuscaled -trace-out writes. The analysis reads only these
// fields, so a change to what the processes emit that keeps the file
// format keeps the traced run working.
type event struct {
	Name   string  `json:"name"`
	Ph     string  `json:"ph"`
	TS     float64 `json:"ts"` // microseconds since the writer started
	Dur    float64 `json:"dur,omitempty"`
	PID    int     `json:"pid"`
	TID    int64   `json:"tid"`
	Trace  string  `json:"trace,omitempty"`
	Span   string  `json:"span,omitempty"`
	Parent string  `json:"parent,omitempty"`
	Proc   string  `json:"proc,omitempty"`
}

func (e event) end() float64 { return e.TS + e.Dur }

// recorder keeps the benchmark's own spans in memory until the run
// ends. A nil recorder records nothing.
type recorder struct {
	start  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	events []event
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// spanID mints a span ID unique within this process; trace IDs keep
// spans of different runs apart.
func (r *recorder) spanID() string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("%016x", r.nextID.Add(1))
}

func (r *recorder) add(name, trace, span, parent string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	e := event{Name: name, Ph: "X", TS: float64(start.Sub(r.start)) / 1e3, Dur: float64(d) / 1e3,
		Trace: trace, Span: span, Parent: parent, Proc: "client"}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// write stores the spans as <dir>/client.trace.
func (r *recorder) write(dir string) error {
	f, err := os.Create(filepath.Join(dir, "client.trace"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, e := range r.events {
		if err = enc.Encode(e); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func newTraceID() string {
	var b [16]byte
	rand.Read(b[:]) // crypto/rand.Read does not fail on Linux
	return hex.EncodeToString(b[:])
}

// timedRow wraps a row engine to record a PrepareRow span per kernel
// and an EvalBatch span per batch, forwarding batches to the wrapped
// row so the sweep takes the same path it takes without the wrapper.
type timedRow struct {
	inner         gcn.RowEngine
	rec           *recorder
	trace, parent string
}

func (e timedRow) PrepareRow(k *kernel.Kernel) (gcn.PreparedRow, error) {
	t0 := time.Now()
	pr, err := e.inner.PrepareRow(k)
	e.rec.add("PrepareRow", e.trace, "", e.parent, t0, time.Since(t0))
	if err != nil {
		return nil, err
	}
	return timedPrepared{PreparedRow: pr, e: e}, nil
}

type timedPrepared struct {
	gcn.PreparedRow
	e timedRow
}

func (p timedPrepared) EvalBatch(cfgs []hw.Config, out []gcn.Result, errs []error) error {
	br, ok := p.PreparedRow.(gcn.BatchRow)
	if !ok {
		return fmt.Errorf("row engine does not batch")
	}
	t0 := time.Now()
	err := br.EvalBatch(cfgs, out, errs)
	p.e.rec.add("EvalBatch", p.e.trace, "", p.e.parent, t0, time.Since(t0))
	return err
}

// readTraces loads every <role>.trace file in dir.
func readTraces(dir string) (map[string][]event, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		return nil, err
	}
	out := map[string][]event{}
	for _, p := range paths {
		evs, err := readTrace(p)
		if err != nil {
			return nil, err
		}
		out[strings.TrimSuffix(filepath.Base(p), ".trace")] = evs
	}
	return out, nil
}

func readTrace(path string) ([]event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var evs []event
	for line := 1; sc.Scan(); line++ {
		// Per-cell leaf events, two per matrix cell, are most of a
		// traced study's bytes and always lie inside their row's span,
		// so no metric needs them.
		b := sc.Bytes()
		if len(b) == 0 || bytes.HasPrefix(b, []byte(`{"name":"cell"`)) || bytes.HasPrefix(b, []byte(`{"name":"attempt"`)) {
			continue
		}
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		evs = append(evs, e)
	}
	return evs, sc.Err()
}

// traceStats are the per-layer metrics only a traced run yields.
type traceStats struct {
	prepareS, evalS, nsPerCell  float64 // per study, library only
	rowP50, rowMax              float64 // dist row spans, seconds
	workerIdleFrac, leaseGapP50 float64
	unattributedFrac            float64
}

// analyzeTraces computes traceStats over the studies whose trace IDs
// are in timed, with cells evaluated per study and nWorkers fleet
// workers.
//
// Each process stamps times from its own trace start, so spans are
// aligned causally: the primary's job span ends no later than the
// client sees the job terminal, and a worker's row span starts no
// earlier than the primary's grant of its lease. Over many studies the
// tightest of these bounds is within a poll interval of the true
// offset.
func analyzeTraces(files map[string][]event, timed map[string]bool, cells, nWorkers int) traceStats {
	var st traceStats
	n := float64(len(timed))
	if n == 0 {
		return st
	}
	type interval struct{ lo, hi float64 }
	runs := map[string]interval{}
	var prep, eval float64
	for _, e := range files["client"] {
		if !timed[e.Trace] {
			continue
		}
		switch e.Name {
		case "run":
			runs[e.Trace] = interval{e.TS, e.end()}
		case "PrepareRow":
			prep += e.Dur
		case "EvalBatch":
			eval += e.Dur
		}
	}
	st.prepareS = prep / 1e6 / n
	st.evalS = eval / 1e6 / n
	if cells > 0 {
		st.nsPerCell = eval * 1e3 / (n * float64(cells))
	}
	if len(runs) == 0 {
		return st
	}

	// Offsets map each process's clock onto the client's.
	offsets := map[string]float64{}
	leases := map[string]float64{} // lease span -> grant time, client clock
	if evs, ok := files["primary"]; ok {
		off, found := 0.0, false
		for _, e := range evs {
			if r, ok := runs[e.Trace]; ok && e.Name == "job" {
				if c := r.hi - e.end(); !found || c < off {
					off, found = c, true
				}
			}
		}
		if found {
			offsets["primary"] = off
			for _, e := range evs {
				if (e.Name == "lease" || e.Name == "steal") && e.Span != "" {
					leases[e.Span] = e.TS + off
				}
			}
		}
	}
	var rowDur, gaps []float64
	for role, evs := range files {
		if !strings.HasPrefix(role, "worker") {
			continue
		}
		off, found := 0.0, false
		var rows []event
		for _, e := range evs {
			// The dist row span carries its own span ID under the lease;
			// the sweep executor's leaf "row" event carries none.
			if e.Name != "row" || e.Span == "" || !timed[e.Trace] {
				continue
			}
			rows = append(rows, e)
			rowDur = append(rowDur, e.Dur/1e6)
			if g, ok := leases[e.Parent]; ok {
				if c := g - e.TS; !found || c > off {
					off, found = c, true
				}
			}
		}
		if found {
			offsets[role] = off
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].TS < rows[j].TS })
		for i := 1; i < len(rows); i++ {
			if rows[i].Trace == rows[i-1].Trace {
				gaps = append(gaps, (rows[i].TS-rows[i-1].end())/1e6)
			}
		}
	}
	st.rowP50, st.rowMax = median(rowDur), maxOf(rowDur)
	st.leaseGapP50 = median(gaps)

	// Unattributed time: the part of each study's run that no span of
	// its trace on any gpuscaled process covers.
	spans := map[string][]interval{}
	for role, off := range offsets {
		for _, e := range files[role] {
			if _, ok := runs[e.Trace]; ok && e.Dur > 0 {
				spans[e.Trace] = append(spans[e.Trace], interval{e.TS + off, e.end() + off})
			}
		}
	}
	var runTotal, uncovered float64
	for id, r := range runs {
		runTotal += r.hi - r.lo
		iv := spans[id]
		sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
		at := r.lo
		for _, s := range iv {
			if s.lo > at {
				uncovered += min(s.lo, r.hi) - at
			}
			if s.hi > at {
				at = s.hi
			}
			if at >= r.hi {
				break
			}
		}
		if at < r.hi {
			uncovered += r.hi - at
		}
	}
	if runTotal > 0 {
		st.unattributedFrac = uncovered / runTotal
		if nWorkers > 0 {
			st.workerIdleFrac = 1 - sum(rowDur)*1e6/(float64(nWorkers)*runTotal)
		}
	}
	return st
}
