package serve

// Crash-recovery tests: the daemon dies (or drains hard) at the three
// interesting instants — after admission but before the first cell,
// mid-sweep with rows journaled, and during drain with work still
// queued — restarts on the same state directory, and must end with the
// same job table and byte-identical matrices as an uninterrupted run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/durable"
	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/sweep"
)

// referenceMatrix runs spec uninterrupted in a fresh directory and
// returns the archived matrix bytes — the ground truth recovery must
// reproduce. cfg's Dir is replaced; everything else is kept so the
// execution parameters match the interrupted run exactly.
func referenceMatrix(t *testing.T, cfg Config, spec JobSpec) []byte {
	t.Helper()
	cfg.Dir = t.TempDir()
	cfg.Runners = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Submit("ref", spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, st.ID)
	if got.State != StateComplete {
		t.Fatalf("reference run = %+v", got)
	}
	var buf bytes.Buffer
	if err := s.MatrixCSV(st.ID, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func jobMatrix(t *testing.T, s *Service, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.MatrixCSV(id, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecoverJobAdmittedButNeverStarted(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	cfg := Config{Dir: dir, SweepWorkers: 2}
	want := referenceMatrix(t, cfg, spec)

	// "Kill" the daemon between admission and the first cell: no
	// runners ever start, so the only trace is the fsynced job file.
	killed := cfg
	killed.Dir = dir
	killed.Runners = -1
	s1, err := New(killed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s1.journalPath(st.ID)); !os.IsNotExist(err) {
		t.Fatalf("job not yet run already has a journal (err=%v)", err)
	}
	// s1 is abandoned without drain — the crash. A new service on the
	// same directory must pick the job up and finish it.
	restarted := cfg
	restarted.Dir = dir
	restarted.Runners = 1
	s2, err := New(restarted)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got := s2.met.recovered.Value(); got != 1 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
	}
	got := waitTerminal(t, s2, st.ID)
	if got.State != StateComplete {
		t.Fatalf("recovered job = %+v", got)
	}
	if !bytes.Equal(jobMatrix(t, s2, st.ID), want) {
		t.Fatal("recovered matrix differs from uninterrupted run")
	}
}

func TestRecoverJobInterruptedMidSweep(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	// Latency faults slow every cell without changing any value, so the
	// interrupted and reference runs stay byte-identical.
	cfg := Config{Dir: dir, SweepWorkers: 1, Injector: slowInjector()}
	want := referenceMatrix(t, cfg, spec)

	first := cfg
	first.Dir = dir
	first.Runners = 1
	s1, err := New(first)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "a journaled row", func() bool {
		got, err := s1.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return got.RowsDone >= 1
	})
	// Hard drain: zero grace means the in-flight sweep is interrupted
	// now. Crash-only: the interrupted job writes NO terminal record.
	drain(t, s1)
	if _, err := os.Stat(s1.statePath(st.ID)); !os.IsNotExist(err) {
		t.Fatalf("interrupted job has a terminal state file (err=%v)", err)
	}
	gotMid, err := s1.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotMid.State.Terminal() {
		t.Fatalf("interrupted job settled terminally: %+v", gotMid)
	}
	// A crash mid-append leaves a torn frame after the journaled rows;
	// the restart must salvage past it and say so in its log.
	torn := []byte("0badf00d 4096 {\"kernel\":\"torn")
	jf, err := os.OpenFile(s1.journalPath(st.ID), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(torn); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	var logMu sync.Mutex
	var logs []string
	second := cfg
	second.Dir = dir
	second.Runners = 1
	second.Logf = func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	s2, err := New(second)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got := s2.met.recovered.Value(); got != 1 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
	}
	got := waitTerminal(t, s2, st.ID)
	if got.State != StateComplete {
		t.Fatalf("resumed job = %+v", got)
	}
	// The journal made the resume reuse completed rows, and those rows
	// count: the job reports every row done and every cell measured.
	if !strings.Contains(got.Summary, fmt.Sprintf(" %d reused ", got.Configs)) {
		t.Fatalf("resume did not reuse the journaled row: %s", got.Summary)
	}
	if got.RowsDone != got.Kernels || got.Coverage != 1 {
		t.Fatalf("resumed job reports %d of %d rows done, coverage %g; want all of them and 1",
			got.RowsDone, got.Kernels, got.Coverage)
	}
	if !bytes.Equal(jobMatrix(t, s2, st.ID), want) {
		t.Fatal("resumed matrix differs from uninterrupted run")
	}
	logMu.Lock()
	defer logMu.Unlock()
	salvaged := 0
	for _, l := range logs {
		if strings.Contains(l, "salvaged") {
			salvaged++
			wantLine := fmt.Sprintf("%s: journal salvaged: dropped %d bytes (torn record at byte", st.ID, len(torn))
			if !strings.Contains(l, wantLine) {
				t.Fatalf("salvage log line %q does not contain %q", l, wantLine)
			}
		}
	}
	if salvaged != 1 {
		t.Fatalf("%d salvage log lines, want 1; log:\n%s", salvaged, strings.Join(logs, "\n"))
	}
}

func TestRecoverDrainLeavesQueuedJobsIntact(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	cfg := Config{Dir: dir, SweepWorkers: 1, Runners: 1, Injector: slowInjector()}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s1.Submit("alice", spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitFor(t, 10*time.Second, "first job under way", func() bool {
		got, err := s1.Get(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		return got.RowsDone >= 1
	})
	drain(t, s1)
	// Nothing settled terminally: the running job was interrupted, the
	// queued ones never started.
	for _, id := range ids {
		if _, err := os.Stat(s1.statePath(id)); !os.IsNotExist(err) {
			t.Fatalf("%s has a terminal state file after drain (err=%v)", id, err)
		}
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got := s2.met.recovered.Value(); got != 3 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 3", got)
	}
	for _, id := range ids {
		got := waitTerminal(t, s2, id)
		if got.State != StateComplete {
			t.Fatalf("%s after recovery = %+v", id, got)
		}
	}
	// Exactly one terminal record per job — none lost, none duplicated.
	for _, id := range ids {
		if _, err := os.Stat(s2.statePath(id)); err != nil {
			t.Fatalf("%s missing its terminal record: %v", id, err)
		}
	}
}

func TestRecoverNeverReRunsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	s1, err := New(Config{Dir: dir, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, s1, st.ID)
	if first.State != StateComplete {
		t.Fatalf("first run = %+v", first)
	}
	wantMatrix := jobMatrix(t, s1, st.ID)
	drain(t, s1)
	wantJournal, err := os.ReadFile(s1.journalPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	wantState, err := os.ReadFile(s1.statePath(st.ID))
	if err != nil {
		t.Fatal(err)
	}

	// Restart with an injector that breaks every simulation: if the
	// terminal job were re-run, its matrix could not survive intact.
	s2, err := New(Config{Dir: dir, SweepWorkers: 2,
		Injector: fault.Injector{ErrorRate: 1, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got := s2.met.recovered.Value(); got != 0 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 0 (job was terminal)", got)
	}
	got, err := s2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateComplete {
		t.Fatalf("terminal job after restart = %+v", got)
	}
	// The recovered job answers the status it answered before: its
	// state record carries the settled rows and validated cells.
	if got != first {
		t.Fatalf("terminal job's status changed across restart:\n got %+v\nwant %+v", got, first)
	}
	time.Sleep(20 * time.Millisecond) // give a hypothetical re-run time to do damage
	if b, _ := os.ReadFile(s2.journalPath(st.ID)); !bytes.Equal(b, wantJournal) {
		t.Fatal("terminal job's journal changed across restart")
	}
	if b, _ := os.ReadFile(s2.statePath(st.ID)); !bytes.Equal(b, wantState) {
		t.Fatal("terminal job's state record changed across restart")
	}
	// And the terminal job still serves its matrix, rendered from disk.
	if !bytes.Equal(jobMatrix(t, s2, st.ID), wantMatrix) {
		t.Fatal("terminal job's served matrix changed across restart")
	}
}

// TestRefusesEarlierArchive: no job this version runs writes an
// <id>.csv archive, and a terminal job whose matrix an earlier version
// archived so answers /matrix with a 404 that names the archive, which
// is left as it is: its journal's render could lack rows the archive
// held.
func TestRefusesEarlierArchive(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s1, st.ID)
	drain(t, s1)
	if _, err := os.Stat(dir + "/" + st.ID + ".csv"); !os.IsNotExist(err) {
		t.Fatalf("a finished job wrote an archive (err=%v)", err)
	}
	archive := []byte("kernel,cus,core_mhz,mem_mhz,throughput,time_ns,bound,status\nold,4,200,150,1,1,compute,ok\n")
	if err := os.WriteFile(dir+"/"+st.ID+".csv", archive, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Dir: dir, Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), st.ID+".csv") {
		t.Fatalf("terminal job with an earlier archive answered %d %q (%v), want a 404 naming the archive", resp.StatusCode, body, err)
	}
	if got, err := os.ReadFile(dir + "/" + st.ID + ".csv"); err != nil || !bytes.Equal(got, archive) {
		t.Fatalf("the earlier archive changed (%v)", err)
	}
}

func TestRecoverOpenJobsRespectAdmissionBound(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Runners: -1, MaxJobs: 2}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s1.Submit("alice", testSpec(t)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash (no drain), restart: the recovered table fills the bound,
	// so the next submission sheds rather than exceeding it.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.met.openJobs.Value(); got != 2 {
		t.Fatalf("serve_open_jobs after recovery = %g, want 2", got)
	}
	_, err = s2.Submit("alice", testSpec(t))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedQueueFull {
		t.Fatalf("submit over recovered bound: %v, want queue_full shed", err)
	}
}

// TestFailedPersistSettlesJobFailed: a job whose terminal record cannot
// be made durable settles failed with the persistence error as its
// reason, answers /matrix with a 404 (its journal alone is not its
// matrix) and writes no state record — so a restart on the same
// directory re-enqueues it and its journal resumes it to complete, with
// the matrix an uninterrupted run gives.
func TestFailedPersistSettlesJobFailed(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	cfg := Config{Dir: dir, SweepWorkers: 2}
	want := referenceMatrix(t, cfg, spec)

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the terminal record goes makes its rename fail.
	const id = "job-000000"
	if err := os.Mkdir(s1.statePath(id), 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != id {
		t.Fatalf("first job is %s, want %s", st.ID, id)
	}
	got := waitTerminal(t, s1, id)
	if got.State != StateFailed || !strings.Contains(got.Reason, "persisting terminal state") {
		t.Fatalf("job after a failed persist = %+v, want failed with the persistence error", got)
	}
	ts := httptest.NewServer(s1.Handler())
	res, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	ts.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("matrix of a job with no terminal record = %d, want 404", res.StatusCode)
	}
	if fi, err := os.Stat(s1.statePath(id)); err != nil || !fi.IsDir() {
		t.Fatalf("failed persist left a state record (err=%v)", err)
	}
	drain(t, s1)

	if err := os.Remove(s1.statePath(id)); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got := s2.met.recovered.Value(); got != 1 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
	}
	got = waitTerminal(t, s2, id)
	if got.State != StateComplete {
		t.Fatalf("restarted job = %+v", got)
	}
	if !strings.Contains(got.Summary, "16 reused") {
		t.Fatalf("restarted job did not resume from its journal: %s", got.Summary)
	}
	if !bytes.Equal(jobMatrix(t, s2, id), want) {
		t.Fatal("resumed matrix differs from an uninterrupted run")
	}
}

// TestRecoverIndentedRecords: the service writes its admission and
// terminal records compactly, and still recovers the indented ones an
// earlier version wrote, a terminal record carrying the coverage field
// it wrote too: a terminal job answers the status and the matrix it
// had, and an admitted one runs to the matrix an uninterrupted run
// gives.
func TestRecoverIndentedRecords(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	want := referenceMatrix(t, Config{SweepWorkers: 2}, spec)
	s1, err := New(Config{Dir: dir, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s1, st.ID)
	doneMatrix := jobMatrix(t, s1, st.ID)
	drain(t, s1)
	// A service with no runners admits a job and "crashes" before it
	// starts.
	s0, err := New(Config{Dir: dir, Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s0.Submit("bob", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{s1.jobPath(st.ID), s1.statePath(st.ID), s1.jobPath(queued.ID)} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, b, "", "  "); err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(b, '\n') || indented.Len() <= len(b) {
			t.Fatalf("%s is not compact: %d bytes, %d indented", path, len(b), indented.Len())
		}
		if path == s1.statePath(st.ID) {
			if bytes.Contains(b, []byte(`"coverage"`)) {
				t.Fatalf("%s carries a coverage field: %s", path, b)
			}
			indented.Reset()
			old := append([]byte(`{"coverage": 1, `), b[1:]...)
			if err := json.Indent(&indented, old, "", "  "); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, indented.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := New(Config{Dir: dir, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	if got, err := s2.Get(st.ID); err != nil || got != done {
		t.Fatalf("terminal job from indented records = %+v (%v), want %+v", got, err, done)
	}
	if !bytes.Equal(jobMatrix(t, s2, st.ID), doneMatrix) {
		t.Fatal("terminal job from indented records serves a different matrix")
	}
	if got := waitTerminal(t, s2, queued.ID); got.State != StateComplete || got.Client != "bob" {
		t.Fatalf("job from an indented admission record = %+v", got)
	}
	if !bytes.Equal(jobMatrix(t, s2, queued.ID), want) {
		t.Fatal("job from an indented admission record serves a different matrix")
	}
}

// v2Journal renders m's first n rows as a journal v2 image, with the
// encoder journal v2 wrote: the magic, the space record, then one
// JSON record per row.
func v2Journal(t *testing.T, m *sweep.Matrix, n int) []byte {
	t.Helper()
	b := []byte("gpuscale-journal v2\n")
	payload, err := json.Marshal(map[string]any{"space": m.Space})
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, durable.Frame(payload)...)
	for r := 0; r < n; r++ {
		payload, err := json.Marshal(struct {
			Kernel string      `json:"kernel"`
			Tput   []float64   `json:"tput"`
			TimeNS []float64   `json:"time_ns"`
			Bound  []gcn.Bound `json:"bound"`
		}{m.Kernels[r], m.Throughput[r], m.TimeNS[r], m.Bound[r]})
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, durable.Frame(payload)...)
	}
	return b
}

// TestResumeFromV2Journal: a job interrupted with a journal v2 on disk
// does not resume after an upgrade: it settles as failed, with a reason
// that names the v2 journal, which is left byte for byte as it was. A
// later start-up hands a fleet the job's records but not that journal,
// which no replica takes.
func TestResumeFromV2Journal(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	s0, err := New(Config{Dir: dir, Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s0.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sweep.Run(res.kernels, res.space, sweep.Options{Engine: res.engine, NoiseStdDev: spec.Noise, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	v2 := v2Journal(t, m, 1)
	if err := os.WriteFile(s0.journalPath(st.ID), v2, 0o644); err != nil {
		t.Fatal(err)
	}

	s1, err := New(Config{Dir: dir, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s1, st.ID)
	drain(t, s1)
	if got.State != StateFailed || !strings.Contains(got.Reason, "a v2 journal") {
		t.Fatalf("job over a v2 journal = %+v, want failed with a reason naming the v2 journal", got)
	}
	if b, err := os.ReadFile(s1.journalPath(st.ID)); err != nil || !bytes.Equal(b, v2) {
		t.Fatalf("the job's v2 journal changed (%v)", err)
	}
	fl := &sweepFleet{}
	s2, err := New(Config{Dir: dir, SweepWorkers: 2, Fleet: fl})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s2)
	if got, want := fl.replicated(), []string{s2.jobPath(st.ID), s2.statePath(st.ID)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a restart replicated %v, want the records alone %v", got, want)
	}
}

// TestBlankRowsStayOutOfTheRecord: a job past its deadline settles the
// rows it had not started as canceled rows of zeros, which is what
// /matrix renders for a kernel the journal lacks, so its terminal
// record carries none of them, and the job serves exactly the render
// of its journal with those rows passed back in.
func TestBlankRowsStayOutOfTheRecord(t *testing.T) {
	spec := JobSpec{Suite: "sdk-samples", Space: testSpec(t).Space, DeadlineMS: 50}
	s, err := New(Config{Dir: t.TempDir(), SweepWorkers: 1, Injector: slowInjector()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s, st.ID); got.State != StateCanceled || got.Reason != "deadline exceeded" {
		t.Fatalf("deadlined job = %+v", got)
	}
	served := jobMatrix(t, s, st.ID)
	drain(t, s)
	b, err := os.ReadFile(s.statePath(st.ID))
	var sf stateFile
	if err != nil || json.Unmarshal(b, &sf) != nil {
		t.Fatalf("reading the terminal record: %v", err)
	}
	res, err := spec.resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	journaled, err := sweep.ReadJournal(s.journalPath(st.ID), res.space)
	if err != nil {
		t.Fatal(err)
	}
	nCfg := res.space.Size()
	rows := map[int]sweep.Row{}
	names := make([]string, len(res.kernels))
	for r, k := range res.kernels {
		names[r] = k.Name
		if row, ok := sf.Unjournaled[r]; ok {
			if row.Blank() {
				t.Errorf("the terminal record carries row %d, a canceled row of zeros", r)
			}
			rows[r] = row
		} else if journaled == nil || journaled.Row(k.Name) < 0 {
			blank := sweep.Row{Throughput: make([]float64, nCfg), TimeNS: make([]float64, nCfg),
				Bound: make([]gcn.Bound, nCfg), Status: make([]sweep.CellStatus, nCfg)}
			for c := range blank.Status {
				blank.Status[c] = sweep.StatusCanceled
			}
			rows[r] = blank
		}
	}
	dropped := len(rows) - len(sf.Unjournaled)
	t.Logf("%d of %d rows dropped; the terminal record is %d bytes", dropped, len(names), len(b))
	if dropped == 0 {
		t.Fatal("the deadline left no row unstarted")
	}
	var want bytes.Buffer
	if err := sweep.WriteJournalCSV(&want, s.journalPath(st.ID), res.space, names, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatal("the job's matrix differs from its journal's render with the dropped rows passed back in")
	}
}

// TestUnjournaledRowsSurviveRestart: rows the journal does not hold —
// rows with cells the injected faults failed, and complete rows whose
// torn append was rolled back — render from the running job's memory,
// then from its terminal record, before and after a restart, exactly
// as an in-process sweep with the same faults renders them.
func TestUnjournaledRowsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	spec.Noise, spec.Seed = 0.05, 4
	// At this seed one row has failed cells and the other, complete,
	// tears its append to the job's journal (tears roll on the file's
	// name): the journal holds neither.
	inj := fault.Injector{ErrorRate: 0.1, TornWriteRate: 0.5, Seed: 4}
	s1, err := New(Config{Dir: dir, SweepWorkers: 1, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s1, st.ID); got.State != StateComplete || got.Coverage == 1 {
		t.Fatalf("job under faults = %+v, want complete with failed cells", got)
	}
	res, err := spec.resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := sweep.RunContext(context.Background(), res.kernels, res.space, sweep.Options{Engine: res.engine,
		NoiseStdDev: spec.Noise, Seed: spec.Seed, Row: inj.WrapRow(res.engine.Row())})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := m.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jobMatrix(t, s1, st.ID), want.Bytes()) {
		t.Fatal("a job with failed cells serves a different matrix than an in-process run")
	}
	drain(t, s1)
	var sf stateFile
	if b, err := os.ReadFile(s1.statePath(st.ID)); err != nil || json.Unmarshal(b, &sf) != nil || len(sf.Unjournaled) != 2 {
		t.Fatalf("terminal record carries %d unjournaled rows (%v), want both rows", len(sf.Unjournaled), err)
	}
	s2, err := New(Config{Dir: dir, Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jobMatrix(t, s2, st.ID), want.Bytes()) {
		t.Fatal("a job with failed cells serves a different matrix after a restart")
	}
}
