package sweep

// Integrity-facing journal coverage: ENOSPC-style write failures must
// self-heal like torn writes, a row lost to a salvaged tail must
// surface by name, and a row's digest must see a one-cell change.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuscale/internal/fault"
)

// TestJournalWriteErrorSelfHeals drives AppendRow through the fault
// injector's ENOSPC model: the write fails with ErrWriteFail after a
// deterministic prefix, the append must report the failure, leave the
// file byte-identical to its pre-append state, and a later clean
// reopen must append from the healed offset.
func TestJournalWriteErrorSelfHeals(t *testing.T) {
	space := tinySpace(t)
	m, rep, err := RunContext(context.Background(), testKernels(), space, journalOpts())
	if err != nil || !rep.Complete() {
		t.Fatalf("clean sweep: %v %s", err, rep.Summary())
	}
	path := filepath.Join(t.TempDir(), "enospc.journal")
	in := fault.Injector{WriteErrRate: 1, Seed: 5}
	fired := 0
	in.OnDecision = func(d fault.Decision) {
		if d.Kind == fault.KindWriteErr {
			fired++
		}
	}
	j, err := OpenJournalWith(path, space, JournalOptions{WrapWriter: in.WrapWriter})
	// With rate 1 even the header write fails; the open itself may
	// error, which is fine — reopen must still heal whatever landed.
	if err == nil {
		before, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		aerr := j.AppendRow(m, 0)
		if aerr == nil {
			t.Fatal("failed write reported success")
		}
		if !errors.Is(aerr, fault.ErrWriteFail) {
			t.Fatalf("append error %v does not wrap ErrWriteFail", aerr)
		}
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(before, after) {
			t.Fatal("failed append left partial bytes behind (self-heal failed)")
		}
		j.Close()
	}
	if fired == 0 {
		t.Fatal("injector fired no write errors at rate 1")
	}
	// The disk "recovers": a faultless reopen salvages and completes.
	j2, err := OpenJournal(path, space)
	if err != nil {
		t.Fatalf("reopen after write errors: %v", err)
	}
	defer j2.Close()
	for r := range m.Kernels {
		if err := j2.AppendRow(m, r); err != nil {
			t.Fatalf("clean append after heal: %v", err)
		}
	}
	if err := j2.VerifyComplete(m.Kernels); err != nil {
		t.Fatalf("journal incomplete after healed appends: %v", err)
	}
}

// TestMergeSalvagedTailDropsRow: a journal whose last record was torn
// by a crash salvages on reopen to a clean-but-shorter file; the
// strict reader accepts it, and the missing kernel surfaces by name
// when its matrix is asked for canonical bytes.
func TestMergeSalvagedTailDropsRow(t *testing.T) {
	space := tinySpace(t)
	ks := testKernels()[:2]
	dir := t.TempDir()
	p, m := sweepToJournal(t, dir, "w.journal", ks, space, 9)

	// Tear the last record mid-line, then let OpenJournal salvage: the
	// torn row is dropped, the file is clean again.
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(p, space)
	if err != nil {
		t.Fatalf("salvaging reopen: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	salvaged, err := ReadJournal(p, space)
	if err != nil {
		t.Fatalf("salvaged journal should read cleanly: %v", err)
	}
	if len(salvaged.Kernels) != 1 {
		t.Fatalf("salvage should have dropped exactly the torn row: %d rows", len(salvaged.Kernels))
	}
	_, err = CanonicalJournalBytes(salvaged, m.Kernels)
	if err == nil || !strings.Contains(err.Error(), "missing") || !strings.Contains(err.Error(), m.Kernels[1]) {
		t.Fatalf("canonical render should name the dropped kernel, got %v", err)
	}
}

// TestRowDigestSensitivity: RowDigest and the EncodePlanes +
// RecordDigest pair the coordinator digests a shipped row with agree
// on the same row, and a small change to a single cell changes the
// digest — the property the fleet's attestation hangs on.
func TestRowDigestSensitivity(t *testing.T) {
	space := tinySpace(t)
	dir := t.TempDir()
	_, m := sweepToJournal(t, dir, "w.journal", testKernels()[:1], space, 9)

	d1, err := RowDigest(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := EncodePlanes(m.Kernels[0], m.Throughput[0], m.TimeNS[0], m.Bound[0])
	if err != nil {
		t.Fatal(err)
	}
	if d2 := RecordDigest(rec); d1 != d2 {
		t.Fatalf("RowDigest %s and EncodePlanes+RecordDigest %s disagree on the same row", d1, d2)
	}
	m.Throughput[0][0] *= 1 + 1.0/1024
	d3, err := RowDigest(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("digest unchanged after tampering with a cell")
	}
}

// TestAppendRecordMatchesAppendRow: a row rendered once with EncodeRow
// and appended with AppendRecord writes exactly the bytes AppendRow
// writes, and its RecordDigest is the row's RowDigest — the identity
// that lets a fleet process render a row once and hand the same
// record to its journal and its attestation. AppendRecord refuses an
// empty record and one rendered for another space, leaving the file
// untouched, and an incomplete row has no record at all.
func TestAppendRecordMatchesAppendRow(t *testing.T) {
	space := tinySpace(t)
	m, rep, err := RunContext(context.Background(), testKernels(), space, journalOpts())
	if err != nil || !rep.Complete() {
		t.Fatalf("clean sweep: %v %s", err, rep.Summary())
	}
	dir := t.TempDir()
	viaRow, err := OpenJournal(filepath.Join(dir, "row.journal"), space)
	if err != nil {
		t.Fatal(err)
	}
	defer viaRow.Close()
	viaRecord, err := OpenJournal(filepath.Join(dir, "record.journal"), space)
	if err != nil {
		t.Fatal(err)
	}
	defer viaRecord.Close()
	for r := range m.Kernels {
		if err := viaRow.AppendRow(m, r); err != nil {
			t.Fatal(err)
		}
		rec, err := EncodeRow(m, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := viaRecord.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
		want, err := RowDigest(m, r)
		if err != nil {
			t.Fatal(err)
		}
		if got := RecordDigest(rec); got != want {
			t.Fatalf("row %d: RecordDigest %s, RowDigest %s", r, got, want)
		}
	}
	a, err := os.ReadFile(filepath.Join(dir, "row.journal"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "record.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("AppendRecord wrote different bytes than AppendRow")
	}

	if err := viaRecord.AppendRecord(RowRecord{}); err == nil {
		t.Fatal("an empty record was journaled")
	}
	short, err := EncodePlanes("short", m.Throughput[0][:2], m.TimeNS[0][:2], m.Bound[0][:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := viaRecord.AppendRecord(short); err == nil {
		t.Fatal("a record rendered for another space was journaled")
	}
	if after, err := os.ReadFile(filepath.Join(dir, "record.journal")); err != nil || !bytes.Equal(after, b) {
		t.Fatalf("refused records changed the journal (%v)", err)
	}
	m.Status[1][0] = StatusFailed
	if _, err := EncodeRow(m, 1); err == nil {
		t.Fatal("an incomplete row rendered a record")
	}
}

// TestAppendRecordBatch: several records land in one append whose bytes
// are the single appends' bytes in order, so a batch's journal reads
// back exactly as a row-by-row one. A torn batch append acks none of
// its records and leaves the file at its clean prefix, and a batch
// holding one record of another space is refused whole before any
// write.
func TestAppendRecordBatch(t *testing.T) {
	space := tinySpace(t)
	m, rep, err := RunContext(context.Background(), testKernels(), space, journalOpts())
	if err != nil || !rep.Complete() {
		t.Fatalf("clean sweep: %v %s", err, rep.Summary())
	}
	var recs []RowRecord
	for r := range m.Kernels {
		rec, err := EncodeRow(m, r)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	dir := t.TempDir()
	one, err := OpenJournal(filepath.Join(dir, "one.journal"), space)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	for _, rec := range recs {
		if err := one.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	tear := false
	torn := fault.Injector{TornWriteRate: 1, Seed: 9}
	batchPath := filepath.Join(dir, "batch.journal")
	batch, err := OpenJournalWith(batchPath, space, JournalOptions{WrapWriter: func(w io.Writer) io.Writer {
		tw := torn.WrapWriter(w)
		return writerFunc(func(b []byte) (int, error) {
			if tear {
				return tw.Write(b)
			}
			return w.Write(b)
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	clean, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}

	tear = true
	if err := batch.AppendRecord(recs...); !errors.Is(err, fault.ErrTornWrite) {
		t.Fatalf("torn batch append: %v, want ErrTornWrite", err)
	}
	tear = false
	if got, err := os.ReadFile(batchPath); err != nil || !bytes.Equal(got, clean) {
		t.Fatalf("a torn batch left bytes behind (%v)", err)
	}
	short, err := EncodePlanes("short", m.Throughput[0][:2], m.TimeNS[0][:2], m.Bound[0][:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.AppendRecord(recs[0], short); err == nil {
		t.Fatal("a batch holding a record for another space was journaled")
	}
	if got, err := os.ReadFile(batchPath); err != nil || !bytes.Equal(got, clean) {
		t.Fatalf("a refused batch changed the journal (%v)", err)
	}

	if err := batch.AppendRecord(recs...); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dir, "one.journal"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("a batch append wrote different bytes than one append per record")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }
