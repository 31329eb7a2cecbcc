// Package serve turns the one-shot sweep runtime into a long-lived,
// overload-safe job service: clients submit kernel x configuration
// sweeps over HTTP, poll their status, fetch partial or complete
// matrices, and cancel them, while the service protects itself from
// load instead of falling over.
//
// The admission plane is explicitly bounded: a fixed-capacity job
// table (queued + running), a token-bucket rate limiter, and
// per-client concurrency caps. Requests beyond any bound are shed with
// an explicit 429/503 plus Retry-After — never buffered without
// bound. Per-job deadlines propagate as contexts into the sweep
// executor, handlers are panic-isolated, and SIGTERM drains: stop
// admitting, let in-flight jobs checkpoint, exit.
//
// Persistence is crash-only, built on the CRC-journaled sweep.Journal:
// every admitted job writes an atomic spec file, every completed row
// is fsynced into the job's journal, and only terminal transitions
// write a state file, which carries the few rows the journal does not
// hold as they are (rows with failed or canceled cells). The journal
// and that record are the job's matrix: /matrix renders it from them
// on any process that holds them. A killed daemon restarts, rescans
// the directory, and Resumes every queued and in-flight job — completed
// rows are reused, so the recovered matrices are byte-identical to an
// uninterrupted run, and an already-terminal job is never re-run.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/suites"
	"gpuscale/internal/sweep"
)

// State is a job's lifecycle phase. Queued and running jobs are
// recoverable (they re-enqueue after a crash or restart); complete,
// canceled and failed are terminal and persisted.
type State string

const (
	// StateQueued marks an admitted job waiting for a runner.
	StateQueued State = "queued"
	// StateRunning marks a job a runner is sweeping.
	StateRunning State = "running"
	// StateComplete marks a finished job; its matrix may still carry
	// failed cells (coverage < 1) — completion means the sweep ran to
	// the end, not that every cell measured.
	StateComplete State = "complete"
	// StateCanceled marks a job ended early by client cancellation or
	// its deadline; completed rows are kept.
	StateCanceled State = "canceled"
	// StateFailed marks a job the service could not run at all (e.g.
	// its journal could not be opened). Spec errors never get here —
	// they are rejected at submission.
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateComplete || s == StateCanceled || s == StateFailed
}

// JobSpec is the client-supplied description of one sweep job. Either
// Suite names a built-in corpus suite or Kernels carries an inline
// kernel list (the kernel.ReadAll JSON schema); exactly one must be
// set. A nil Space means the full 891-configuration study grid.
type JobSpec struct {
	// Suite restricts the sweep to one built-in suite.
	Suite string `json:"suite,omitempty"`
	// Kernels is an inline kernel list (kernel JSON array).
	Kernels json.RawMessage `json:"kernels,omitempty"`
	// Space overrides the configuration grid; admission validates it.
	Space *hw.Space `json:"space,omitempty"`
	// Engine is the simulator fidelity ("round" when empty).
	Engine string `json:"engine,omitempty"`
	// Noise and Seed configure measurement-noise emulation.
	Noise float64 `json:"noise,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	// Retries is the per-cell retry budget. A service running its sweeps
	// on a fleet refuses it: the workers' own budget applies.
	Retries int `json:"retries,omitempty"`
	// DeadlineMS bounds the job's total runtime in milliseconds; the
	// deadline propagates as a context into the executor and an
	// expired job settles as canceled with its completed rows kept.
	// 0 means no deadline (the service may still impose a maximum).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// resolved is a spec elaborated into runnable form.
type resolved struct {
	kernels  []*kernel.Kernel
	space    hw.Space
	engine   sweep.Engine
	deadline time.Duration
}

// resolve validates a spec and elaborates it. Every error here is a
// client error (HTTP 400): admission must only accept jobs that can
// actually run, so admitted jobs can only end complete or canceled.
func (spec *JobSpec) resolve(maxDeadline time.Duration) (*resolved, error) {
	r := &resolved{}
	switch {
	case spec.Suite != "" && len(spec.Kernels) > 0:
		return nil, fmt.Errorf("suite and kernels are mutually exclusive")
	case spec.Suite != "":
		s := suites.FindSuite(suites.Corpus(), spec.Suite)
		if s == nil {
			return nil, fmt.Errorf("unknown suite %q", spec.Suite)
		}
		for _, p := range s.Programs {
			for _, e := range p.Kernels {
				r.kernels = append(r.kernels, e.Kernel)
			}
		}
	case len(spec.Kernels) > 0:
		ks, err := kernel.ReadAll(bytes.NewReader(spec.Kernels))
		if err != nil {
			return nil, err
		}
		if len(ks) == 0 {
			return nil, fmt.Errorf("empty kernel list")
		}
		r.kernels = ks
	default:
		return nil, fmt.Errorf("spec needs a suite or an inline kernel list")
	}
	if spec.Space != nil {
		s, err := hw.NewSpace(spec.Space.CUCounts, spec.Space.CoreClocksMHz, spec.Space.MemClocksMHz)
		if err != nil {
			return nil, err
		}
		r.space = s
	} else {
		r.space = hw.StudySpace()
	}
	eng := spec.Engine
	if eng == "" {
		eng = "round"
	}
	e, err := sweep.ParseEngine(eng)
	if err != nil {
		return nil, err
	}
	r.engine = e
	if spec.Noise < 0 || spec.Retries < 0 || spec.DeadlineMS < 0 {
		return nil, fmt.Errorf("noise, retries and deadline_ms must be non-negative")
	}
	r.deadline = time.Duration(spec.DeadlineMS) * time.Millisecond
	if maxDeadline > 0 && (r.deadline == 0 || r.deadline > maxDeadline) {
		r.deadline = maxDeadline
	}
	return r, nil
}

// jobFile is the on-disk admission record (<id>.job), written
// atomically when a job is accepted. Its presence IS the admission:
// recovery re-enqueues every job file without a terminal state file.
type jobFile struct {
	ID     string  `json:"id"`
	Client string  `json:"client,omitempty"`
	Spec   JobSpec `json:"spec"`
	// Trace is the job span's traceparent and Parent the submitting
	// client's span ID; persisting them keeps a crash-recovered job on
	// its original distributed trace.
	Trace  string `json:"trace,omitempty"`
	Parent string `json:"parent,omitempty"`
}

// stateFile is the on-disk terminal record (<id>.state). Only terminal
// transitions are persisted — queued/running are implicit in the
// absence of this file, which is what makes the store crash-only: a
// kill at any instant leaves either "recoverable" or "terminal",
// never a half-written in-between (writes are atomic replacements).
// RowsDone and OKCells are the job's settled rows and validated cells,
// so a recovered terminal job answers the status it answered before.
// Unjournaled holds, by row, the settled rows the job's journal does
// not hold as they are (a fault-free study has none): with the journal
// they are the job's matrix.
type stateFile struct {
	State       State             `json:"state"`
	Reason      string            `json:"reason,omitempty"`
	Summary     string            `json:"summary,omitempty"`
	RowsDone    int               `json:"rows_done,omitempty"`
	OKCells     int               `json:"ok_cells,omitempty"`
	Unjournaled map[int]sweep.Row `json:"unjournaled,omitempty"`
}

// JobStatus is the client-visible view of one job.
type JobStatus struct {
	ID     string `json:"id"`
	Client string `json:"client,omitempty"`
	State  State  `json:"state"`
	// Reason explains canceled/failed states.
	Reason string `json:"reason,omitempty"`
	// Kernels and Configs give the job shape.
	Kernels int `json:"kernels"`
	Configs int `json:"configs"`
	// RowsDone counts settled kernel rows (complete or not).
	RowsDone int `json:"rows_done"`
	// Coverage is the fraction of cells holding validated
	// measurements, over the rows settled so far.
	Coverage float64 `json:"coverage"`
	// Summary is the executor's final accounting (terminal jobs only).
	Summary string `json:"summary,omitempty"`
	// Trace is the job's distributed trace ID — the key that finds
	// every span this job produced, on any process (sweeptrace stitches
	// by it).
	Trace string `json:"trace,omitempty"`
}
