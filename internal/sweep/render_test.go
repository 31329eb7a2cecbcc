package sweep

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/durable"
	"gpuscale/internal/hw"
)

// renderedMatrix is what WriteJournalCSV must render for kernels from
// m's rows: unjournaled[r] where there is one, else m's row for the
// kernel (all OK, as a journal holds it), else a canceled row of zeros.
func renderedMatrix(space hw.Space, kernels []string, m *Matrix, unjournaled map[int]Row) *Matrix {
	want := &Matrix{Space: space}
	for r, name := range kernels {
		row, ok := unjournaled[r]
		if !ok {
			row = newRow(space.Size(), StatusCanceled)
			if m != nil {
				if mr := m.Row(name); mr >= 0 {
					row = Row{m.Throughput[mr], m.TimeNS[mr], m.Bound[mr], newRow(space.Size(), StatusOK).Status}
				}
			}
		}
		want.Kernels = append(want.Kernels, name)
		want.Throughput = append(want.Throughput, row.Throughput)
		want.TimeNS = append(want.TimeNS, row.TimeNS)
		want.Bound = append(want.Bound, row.Bound)
		want.Status = append(want.Status, row.Status)
	}
	return want
}

// TestWriteJournalCSV: a job's matrix renders from its journal, in job
// order whatever order the rows were journaled in, with each kernel's
// last record standing for it, the rows the journal does not hold taken
// from the caller, a kernel with neither rendered as not yet run, and
// nothing past a torn record read — exactly the bytes WriteCSV gives
// the matrix those rows make.
func TestWriteJournalCSV(t *testing.T) {
	space := tinySpace(t)
	ks := testKernels()
	m, err := Run(ks, space, journalOpts())
	if err != nil {
		t.Fatal(err)
	}
	noisier := journalOpts()
	noisier.Seed = 77
	other, err := Run(ks, space, noisier)
	if err != nil {
		t.Fatal(err)
	}
	// b's first record is superseded by its second; a's record lies
	// behind a torn one, so it is not in the clean prefix.
	image, err := CanonicalJournalBytes(other, []string{ks[1].Name})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2} {
		rec, err := rowRecord(m, r)
		if err != nil {
			t.Fatal(err)
		}
		image = append(image, rec...)
	}
	torn, err := rowRecord(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	whole := append(append(image, torn[:40]...), torn...)
	path := filepath.Join(t.TempDir(), "job.journal")
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	kernels := []string{ks[0].Name, ks[1].Name, ks[2].Name, "s/p/never-run", ks[1].Name}
	failed := newRow(space.Size(), StatusFailed)
	failed.Throughput[3], failed.TimeNS[3], failed.Status[3] = 2.5, 40, StatusOK
	for name, unjournaled := range map[string]map[int]Row{
		"journal only":       nil,
		"a failed row":       {0: failed},
		"a retracted record": {2: newRow(space.Size(), StatusCanceled)},
	} {
		var got bytes.Buffer
		if err := WriteJournalCSV(&got, path, space, kernels, unjournaled); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := matrixBytes(t, renderedMatrix(space, kernels, m.rowsOf(1, 2), unjournaled)); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: rendered\n%s\nwant\n%s", name, got.Bytes(), want)
		}
	}
}

// TestWriteJournalCSVTakesNoJournalLock: a render reads the journal
// through its own descriptor, so it finishes while an open Journal's
// lock is held — a fetch never stalls a running job's append.
func TestWriteJournalCSVTakesNoJournalLock(t *testing.T) {
	space := tinySpace(t)
	path := filepath.Join(t.TempDir(), "job.journal")
	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m, err := Run(testKernels(), space, journalOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendRow(m, 1); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	done := make(chan error, 1)
	var got bytes.Buffer
	go func() { done <- WriteJournalCSV(&got, path, space, m.Kernels, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the render waited on the journal's lock")
	}
	if want := matrixBytes(t, renderedMatrix(space, m.Kernels, m.rowsOf(1), nil)); !bytes.Equal(got.Bytes(), want) {
		t.Fatal("the render of a journal in use differs from its rows")
	}
}

// rowsOf is the matrix of m's rows rs alone.
func (m *Matrix) rowsOf(rs ...int) *Matrix {
	out := &Matrix{Space: m.Space}
	for _, r := range rs {
		out.Kernels = append(out.Kernels, m.Kernels[r])
		out.Throughput = append(out.Throughput, m.Throughput[r])
		out.TimeNS = append(out.TimeNS, m.TimeNS[r])
		out.Bound = append(out.Bound, m.Bound[r])
		out.Status = append(out.Status, m.Status[r])
	}
	return out
}

// TestWriteJournalCSVRefuses: a journal the render cannot stand for —
// none at all, a v2 journal that has not been opened (and so migrated),
// a journal of another space — and an unjournaled row that is not a row
// of the job are refused before anything is written.
func TestWriteJournalCSVRefuses(t *testing.T) {
	space := tinySpace(t)
	dir := t.TempDir()
	m, err := Run(testKernels(), space, journalOpts())
	if err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "v2.journal")
	if err := os.WriteFile(v2, refV2Journal(t, m), 0o644); err != nil {
		t.Fatal(err)
	}
	v3, _ := sweepToJournal(t, dir, "v3.journal", testKernels(), space, 9)
	other, err := hw.NewSpace([]int{4}, []float64{200}, []float64{150})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what        string
		path        string
		space       hw.Space
		unjournaled map[int]Row
	}{
		{"no journal", filepath.Join(dir, "missing.journal"), space, nil},
		{"a v2 journal", v2, space, nil},
		{"another space's journal", v3, other, nil},
		{"a short unjournaled row", v3, space, map[int]Row{0: newRow(3, StatusFailed)}},
		{"an unjournaled row past the job", v3, space, map[int]Row{3: newRow(space.Size(), StatusFailed)}},
	} {
		var got bytes.Buffer
		err := WriteJournalCSV(&got, c.path, c.space, m.Kernels, c.unjournaled)
		if err == nil || got.Len() != 0 {
			t.Errorf("%s: rendered %d bytes (%v), want an error and nothing written", c.what, got.Len(), err)
		}
	}
	if err := WriteJournalCSV(&bytes.Buffer{}, filepath.Join(dir, "missing.journal"), space, m.Kernels, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a missing journal's error %v does not say it does not exist", err)
	}
}

// FuzzJournalCSV hammers the renderer with arbitrary journal bytes: it
// must never panic, and it renders exactly the rows scanJournal
// recovers from the clean prefix, the last record per kernel, byte for
// byte as WriteCSV renders them — or refuses, with nothing written, a
// v2 journal or one of another space, as recovery would not read it as
// it stands. The seeds are FuzzJournalScan's, its corpus files
// included.
func FuzzJournalCSV(f *testing.F) {
	space := fuzzSpace(f)
	for _, seed := range journalSeeds(f, space) {
		f.Add(seed)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalScan")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("corpus file %s: %v", e.Name(), err)
		}
		f.Add([]byte(data))
	}
	var kernels []string
	for _, k := range testKernels() {
		kernels = append(kernels, k.Name)
	}
	kernels = append(kernels, "s/p/never-run")
	unjournaled := map[int]Row{1: newRow(space.Size(), StatusFailed)}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		err := WriteJournalCSV(&got, path, space, kernels, unjournaled)
		m, _, _, scanErr := scanJournal(data, space)
		if scanErr != nil || bytes.HasPrefix(data, []byte(journalMagicV2)) {
			if err == nil || got.Len() != 0 {
				t.Fatalf("rendered %d bytes (%v) of a journal recovery refuses or migrates", got.Len(), err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := matrixBytes(t, renderedMatrix(space, kernels, m, unjournaled)); !bytes.Equal(got.Bytes(), want) {
			t.Fatal("the render differs from the rows recovery reads")
		}
	})
}

// journalSeeds are FuzzJournalScan's seed journals for space.
func journalSeeds(f *testing.F, space hw.Space) [][]byte {
	m, err := Run(testKernels(), space, Options{})
	if err != nil {
		f.Fatal(err)
	}
	full, err := CanonicalJournalBytes(m, m.Kernels)
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{
		full,
		full[:len(full)-7],        // torn tail
		[]byte(journalMagic),      // header only
		[]byte(journalMagic[:9]),  // torn magic
		[]byte("deadbeef 3 {}\n"), // frame without magic
		nil,                       // empty
		refV2Journal(f, m),        // v2, the seeds in testdata/ are v2 too
		append(full, durable.Frame([]byte("\x01x"))...), // a record that is no row
	}
}
