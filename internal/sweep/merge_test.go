package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// sweepToJournal runs a clean journaled sweep of ks at the given seed
// and returns the journal path plus the finished matrix.
func sweepToJournal(t *testing.T, dir, name string, ks []*kernel.Kernel, space hw.Space, seed int64) (string, *Matrix) {
	t.Helper()
	path := filepath.Join(dir, name)
	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	opts := journalOpts()
	opts.Seed = seed
	// One worker appends rows in kernel order, so a journal's record
	// positions are deterministic.
	opts.Workers = 1
	opts.OnRow = func(m *Matrix, r int) {
		if err := j.AppendRow(m, r); err != nil {
			t.Errorf("AppendRow: %v", err)
		}
	}
	m, rep, err := RunContext(context.Background(), ks, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("sweep incomplete: %s", rep.Summary())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, m
}

// TestMergeByteIdenticalToSingleNode is the distributed sweep's core
// invariant in miniature: three "workers" each sweep one kernel row
// with the per-row seed offset a dist worker uses (base seed + global
// row index), and the merged journal renders byte-identical to the
// single-node run's canonical journal.
func TestMergeByteIdenticalToSingleNode(t *testing.T) {
	space := tinySpace(t)
	ks := testKernels()
	dir := t.TempDir()
	const baseSeed = int64(9) // journalOpts seed

	_, single := sweepToJournal(t, dir, "single.journal", ks, space, baseSeed)

	var workerFiles []string
	for row, k := range ks {
		// A dist worker sweeps its leased kernel at local row 0, so the
		// global row's noise stream is recovered by offsetting the seed.
		p, _ := sweepToJournal(t, dir, k.Name+".journal", []*kernel.Kernel{k}, space, baseSeed+int64(row))
		workerFiles = append(workerFiles, p)
	}

	merged, err := MergeJournals(space, workerFiles...)
	if err != nil {
		t.Fatal(err)
	}
	order := single.Kernels
	want, err := CanonicalJournalBytes(single, order)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CanonicalJournalBytes(merged, order)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("merged journal differs from single-node canonical journal")
	}

	// And the on-disk form round-trips through ReadJournal.
	out := filepath.Join(dir, "merged.journal")
	if err := WriteCanonicalJournal(out, merged, order); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, onDisk) {
		t.Fatal("WriteCanonicalJournal bytes differ from CanonicalJournalBytes")
	}
	if _, err := ReadJournal(out, space); err != nil {
		t.Fatalf("merged journal does not re-read cleanly: %v", err)
	}
}

// TestMergeOverlapAgreement: a row completed by two workers (the
// steal-then-original-finishes shape) merges cleanly when the copies
// agree and fails loudly when they do not.
func TestMergeOverlapAgreement(t *testing.T) {
	space := tinySpace(t)
	ks := testKernels()[:1]
	dir := t.TempDir()

	pa, _ := sweepToJournal(t, dir, "a.journal", ks, space, 9)
	pb, _ := sweepToJournal(t, dir, "b.journal", ks, space, 9)
	m, err := MergeJournals(space, pa, pb)
	if err != nil {
		t.Fatalf("identical overlap should merge: %v", err)
	}
	if len(m.Kernels) != 1 {
		t.Fatalf("overlap should dedupe to one row, got %d", len(m.Kernels))
	}

	// Different seed → different noise → a disagreement the merge must
	// refuse to paper over.
	pc, _ := sweepToJournal(t, dir, "c.journal", ks, space, 10)
	if _, err := MergeJournals(space, pa, pc); err == nil || !strings.Contains(err.Error(), "merge conflict") {
		t.Fatalf("conflicting overlap should fail with a merge conflict, got %v", err)
	}
}

// TestReadJournalStrict: the merge-side reader rejects what OpenJournal
// would salvage — a torn tail means a worker's claim is unverifiable.
func TestReadJournalStrict(t *testing.T) {
	space := tinySpace(t)
	dir := t.TempDir()
	p, _ := sweepToJournal(t, dir, "w.journal", testKernels()[:1], space, 9)

	if _, err := ReadJournal(p, space); err != nil {
		t.Fatalf("clean journal should read: %v", err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, append(data, []byte("deadbeef 5 gar")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(p, space); err == nil {
		t.Fatal("torn tail should be rejected, not salvaged")
	}
	if _, err := ReadJournal(filepath.Join(dir, "missing.journal"), space); err == nil {
		t.Fatal("missing journal should error")
	}
}

func TestWriteCanonicalJournalValidation(t *testing.T) {
	space := tinySpace(t)
	dir := t.TempDir()
	_, m := sweepToJournal(t, dir, "w.journal", testKernels()[:2], space, 9)

	out := filepath.Join(dir, "out.journal")
	if err := WriteCanonicalJournal(out, m, []string{"s/p/nope"}); err == nil {
		t.Fatal("missing kernel should fail")
	}
	if _, err := CanonicalJournalBytes(nil, nil); err == nil {
		t.Fatal("nil matrix should fail")
	}
}
