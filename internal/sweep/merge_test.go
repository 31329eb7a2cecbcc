package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/suites"
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
// row index), each row's record is appended to one job journal the
// way the coordinator appends an accepted row, and that journal
// renders byte-identical to the single-node run's canonical journal.
func TestMergeByteIdenticalToSingleNode(t *testing.T) {
	space := tinySpace(t)
	ks := testKernels()
	dir := t.TempDir()
	const baseSeed = int64(9) // journalOpts seed

	_, single := sweepToJournal(t, dir, "single.journal", ks, space, baseSeed)

	path := filepath.Join(dir, "job.journal")
	job, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	// Completion order, which worker scheduling picks, is not kernel
	// order: the canonical rendering must not care.
	for row := len(ks) - 1; row >= 0; row-- {
		// A dist worker sweeps its leased kernel at local row 0, so the
		// global row's noise stream is recovered by offsetting the seed.
		opts := journalOpts()
		opts.Seed = baseSeed + int64(row)
		m, rep, err := RunContext(context.Background(), []*kernel.Kernel{ks[row]}, space, opts)
		if err != nil || !rep.Complete() {
			t.Fatalf("row %d sweep: %v", row, err)
		}
		rec, err := EncodeRow(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := job.Close(); err != nil {
		t.Fatal(err)
	}

	merged, err := ReadJournal(path, space)
	if err != nil {
		t.Fatalf("job journal does not re-read cleanly: %v", err)
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
		t.Fatal("job journal differs from single-node canonical journal")
	}
}

// TestReadJournalStrict: the comparison reader rejects what
// OpenJournal would salvage — a torn tail means the journal's claim is
// unverifiable.
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

	if _, err := CanonicalJournalBytes(m, []string{"s/p/nope"}); err == nil {
		t.Fatal("missing kernel should fail")
	}
	if _, err := CanonicalJournalBytes(nil, nil); err == nil {
		t.Fatal("nil matrix should fail")
	}
}

// TestSeed1StudyPins pins the seed-1 study — the whole corpus in the
// order seed 1 permutes it, swept on the round engine with 2% noise
// at seed 1, as the end-to-end benchmark submits it — in both its
// forms: the matrix CSV a job's /matrix serves, and the journal's
// canonical bytes. The CSV has never changed; the journal's bytes
// changed once, by design, with journal v3's binary row records. The
// CSV is also what WriteJournalCSV renders from the study's journal,
// written in reverse kernel order as completion order may have it,
// and the render allocates under 1 MB: it holds one row, not the 4 MB
// journal or the 21 MB CSV.
func TestSeed1StudyPins(t *testing.T) {
	entries := suites.AllEntries(suites.Corpus())
	ks := make([]*kernel.Kernel, len(entries))
	for i, j := range rand.New(rand.NewSource(1)).Perm(len(entries)) {
		ks[i] = entries[j].Kernel
	}
	m, err := Run(ks, hw.StudySpace(), Options{Engine: Round, NoiseStdDev: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := m.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	canonical, err := CanonicalJournalBytes(m, m.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	const csvPin = "fe9349c0ba3aed88ad760c56cb0133c37d12b3b9ff5c9bac32348fbc31354ba5"
	for _, pin := range []struct {
		what string
		b    []byte
		want string
	}{
		{"matrix CSV", csv.Bytes(), csvPin},
		{"canonical journal", canonical, "58002c1f136b4f8bcd4b0945ad0f7a33b2fc90b386a30aedd7d9906f55c83d7b"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(pin.b)); got != pin.want {
			t.Errorf("seed-1 %s sha256 %s (%d bytes), want %s", pin.what, got, len(pin.b), pin.want)
		}
	}

	reversed := slices.Clone(m.Kernels)
	slices.Reverse(reversed)
	journal, err := CanonicalJournalBytes(m, reversed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seed1.journal")
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = WriteJournalCSV(h, path, m.Space, m.Kernels, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != csvPin {
		t.Errorf("seed-1 journal renders to sha256 %s, want %s", got, csvPin)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("rendering the seed-1 journal allocated %d bytes", alloc)
	if alloc >= 1<<20 {
		t.Errorf("rendering the %d-byte seed-1 journal allocated %d bytes, want under 1 MB", len(journal), alloc)
	}
}
