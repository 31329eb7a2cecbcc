package serve

// Group commit on the node: a row settles only once its group's append
// is durable, and a failed group append costs exactly its rows, which
// the terminal record then carries.

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"gpuscale/internal/durable"
	"gpuscale/internal/fault"
	"gpuscale/internal/obs"
	"gpuscale/internal/sweep"
)

// rowRecords counts the row records in a journal image's clean prefix:
// the whole frames after its magic line and its space record.
func rowRecords(b []byte) int {
	off := int64(bytes.IndexByte(b, '\n') + 1)
	n := -1 // the first frame is the space record
	for off > 0 && off < int64(len(b)) {
		_, next, why := durable.Parse(b, off)
		if why != "" {
			break
		}
		n++
		off = next
	}
	return max(n, 0)
}

// TestRowsSettleOnlyWhenDurable: a row counts in rows_done only once
// its group's append is fsynced, so however often a running job is
// sampled, the journal file's clean prefix holds at least as many row
// records as rows_done reported just before it was read.
func TestRowsSettleOnlyWhenDurable(t *testing.T) {
	spec := JobSpec{Suite: "sdk-samples", Space: testSpec(t).Space}
	s, err := New(Config{Dir: t.TempDir(), SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for {
		got, err := s.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(s.journalPath(st.ID))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if n := rowRecords(b); n < got.RowsDone {
			t.Fatalf("rows_done read %d while the journal held %d row records", got.RowsDone, n)
		}
		samples++
		if got.State.Terminal() {
			if got.State != StateComplete || got.RowsDone != got.Kernels || rowRecords(b) != got.Kernels {
				t.Fatalf("job = %+v with %d row records, want complete with every row journaled", got, rowRecords(b))
			}
			break
		}
	}
	t.Logf("%d samples", samples)
}

// TestFailedGroupAppendsCostTheirRows: a node job whose group appends
// fail — the injector's write errors, the ENOSPC model — still
// completes. Its terminal record carries every row of each failed
// group and nothing else, its /matrix is byte-identical to a fault-free
// run's, live and after a restart, and each group append is one
// journal.append span under the job's span, carrying its rows, bytes
// and error.
func TestFailedGroupAppendsCostTheirRows(t *testing.T) {
	spec := JobSpec{Suite: "sdk-samples", Space: testSpec(t).Space}
	want := referenceMatrix(t, Config{SweepWorkers: 2}, spec)
	dir := t.TempDir()
	var trace bytes.Buffer
	sink := obs.NewSink(obs.NewTraceWriter(&trace), nil)
	// At seed 3 the header write lands and the first group's append
	// fails, with more failures after it.
	inj := fault.Injector{WriteErrRate: 0.3, Seed: 3}
	s, err := New(Config{Dir: dir, SweepWorkers: 2, Injector: inj, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, st.ID)
	if got.State != StateComplete || got.RowsDone != got.Kernels || got.Coverage != 1 {
		t.Fatalf("job under write errors = %+v, want complete with every row done", got)
	}
	if !bytes.Equal(jobMatrix(t, s, st.ID), want) {
		t.Fatal("a job whose group appends failed serves a different matrix than a fault-free run")
	}
	drain(t, s)

	var sf stateFile
	if b, err := os.ReadFile(s.statePath(st.ID)); err != nil || json.Unmarshal(b, &sf) != nil {
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
	for r, k := range res.kernels {
		_, carried := sf.Unjournaled[r]
		inJournal := journaled != nil && journaled.Row(k.Name) >= 0
		if carried == inJournal {
			t.Errorf("row %d (%s): carried by the record %v, in the journal %v; want exactly one", r, k.Name, carried, inJournal)
		}
	}

	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&trace)
	if err != nil {
		t.Fatal(err)
	}
	var job obs.Event
	for _, e := range evs {
		if e.Name == "job" {
			job = e
		}
	}
	var failed, rows, failedRows int
	for _, e := range evs {
		if e.Name != "journal.append" {
			continue
		}
		if e.Trace != job.Trace || e.Parent != job.Span || job.Span == "" {
			t.Fatalf("journal.append span %+v is not a child of the job span %+v", e, job)
		}
		n, _ := e.Args["rows"].(float64)
		if b, _ := e.Args["bytes"].(float64); n < 1 || b <= 0 {
			t.Fatalf("journal.append span carries %v rows and %v bytes", e.Args["rows"], e.Args["bytes"])
		}
		rows += int(n)
		if _, ok := e.Args["err"]; ok {
			failed++
			failedRows += int(n)
		}
	}
	if failed == 0 || rows != got.Kernels || failedRows != len(sf.Unjournaled) {
		t.Fatalf("%d failed group appends carried %d rows, %d rows in all; the record carries %d of %d rows",
			failed, failedRows, rows, len(sf.Unjournaled), got.Kernels)
	}

	s2, err := New(Config{Dir: dir, Runners: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jobMatrix(t, s2, st.ID), want) {
		t.Fatal("a job whose group appends failed serves a different matrix after a restart")
	}
}
