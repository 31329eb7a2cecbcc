package sweep

// Integrity-facing journal and merge coverage: ENOSPC-style write
// failures must self-heal like torn writes, and the merge must name
// exactly which row of which journal broke which promise — a
// conflicting duplicate, a row lost to a salvaged tail, or an
// attested-digest mismatch.

import (
	"bytes"
	"context"
	"errors"
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

// TestMergeAttested: the attested merge accepts journals whose rows
// hash to the coordinator's recorded digests, and refuses — naming
// journal, row and kernel — a journal whose bytes disagree with the
// attestation, even though the rows are internally consistent.
func TestMergeAttested(t *testing.T) {
	space := tinySpace(t)
	ks := testKernels()[:2]
	dir := t.TempDir()
	p, m := sweepToJournal(t, dir, "w.journal", ks, space, 9)

	attest := map[string]string{}
	for r, k := range m.Kernels {
		d, err := RowDigest(m, r)
		if err != nil {
			t.Fatal(err)
		}
		attest[k] = d
	}
	merged, err := MergeJournalsAttested(space, attest, p)
	if err != nil {
		t.Fatalf("truthful journal should pass attestation: %v", err)
	}
	if _, err := CanonicalJournalBytes(merged, m.Kernels); err != nil {
		t.Fatal(err)
	}

	// Same journal, but the coordinator attested different bytes for
	// the second kernel — the merge must refuse that row by name.
	attest[m.Kernels[1]] = "0123456789abcdef"
	_, err = MergeJournalsAttested(space, attest, p)
	if err == nil || !strings.Contains(err.Error(), "does not match attested") {
		t.Fatalf("tampered attestation should be refused, got %v", err)
	}
	if !strings.Contains(err.Error(), m.Kernels[1]) || !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("refusal should name the kernel and row: %v", err)
	}
	// Rows without an attestation entry are accepted on the journal's
	// own CRC — partial coverage must not refuse honest rows.
	delete(attest, m.Kernels[1])
	if _, err := MergeJournalsAttested(space, attest, p); err != nil {
		t.Fatalf("unattested rows should merge on their own checksums: %v", err)
	}
}

// TestMergeConflictNamesConfig: a duplicate row whose copies disagree
// is refused with the first disagreeing config position named.
func TestMergeConflictNamesConfig(t *testing.T) {
	space := tinySpace(t)
	ks := testKernels()[:1]
	dir := t.TempDir()
	pa, _ := sweepToJournal(t, dir, "a.journal", ks, space, 9)
	pc, _ := sweepToJournal(t, dir, "c.journal", ks, space, 10)
	_, err := MergeJournals(space, pa, pc)
	if err == nil || !strings.Contains(err.Error(), "merge conflict") {
		t.Fatalf("conflicting duplicate should be refused: %v", err)
	}
	if !strings.Contains(err.Error(), "at config") || !strings.Contains(err.Error(), ks[0].Name) {
		t.Fatalf("conflict should name the kernel and config position: %v", err)
	}
}

// TestMergeSalvagedTailDropsRow: a worker journal whose last record
// was torn by a crash salvages on reopen to a clean-but-shorter file;
// the merge accepts it, and the missing kernel surfaces positionally
// when the merged matrix is asked for canonical bytes.
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

	merged, err := MergeJournals(space, p)
	if err != nil {
		t.Fatalf("salvaged journal should merge cleanly: %v", err)
	}
	if len(merged.Kernels) != 1 {
		t.Fatalf("salvage should have dropped exactly the torn row: %d rows", len(merged.Kernels))
	}
	_, err = CanonicalJournalBytes(merged, m.Kernels)
	if err == nil || !strings.Contains(err.Error(), "missing") || !strings.Contains(err.Error(), m.Kernels[1]) {
		t.Fatalf("canonical render should name the dropped kernel, got %v", err)
	}
}

// TestRowDigestSensitivity: RowDigest and RowPlanesDigest agree on
// the same row, and a one-ULP change to a single cell changes the
// digest — the property the fleet's attestation hangs on.
func TestRowDigestSensitivity(t *testing.T) {
	space := tinySpace(t)
	dir := t.TempDir()
	_, m := sweepToJournal(t, dir, "w.journal", testKernels()[:1], space, 9)

	d1, err := RowDigest(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	bounds := make([]int, space.Size())
	for c := range bounds {
		bounds[c] = int(m.Bound[0][c])
	}
	d2, err := RowPlanesDigest(m.Kernels[0], m.Throughput[0], m.TimeNS[0], bounds)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("RowDigest %s and RowPlanesDigest %s disagree on the same row", d1, d2)
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
