package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/durable"
	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
)

// tinySpace keeps the every-byte-offset harnesses fast: 8 cells/row.
func tinySpace(t *testing.T) hw.Space {
	t.Helper()
	s, err := hw.NewSpace([]int{4, 44}, []float64{200, 1000}, []float64{150, 1250})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// journalOpts is the deterministic sweep configuration the recovery
// harnesses compare against; noise is on so the tests also prove the
// per-row RNG realigns across a resume.
func journalOpts() Options {
	return Options{NoiseStdDev: 0.05, Seed: 9, Workers: 2}
}

// matrixBytes renders a matrix's canonical CSV for byte-identity
// comparisons.
func matrixBytes(t *testing.T, m *Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildFullJournal sweeps cleanly with a journal attached and returns
// the finished journal file's bytes plus the baseline CSV.
func buildFullJournal(t *testing.T, space hw.Space) (journalFile, baseline []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "full.journal")
	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	opts := journalOpts()
	opts.OnRow = func(m *Matrix, r int) {
		if err := j.AppendRow(m, r); err != nil {
			t.Errorf("AppendRow: %v", err)
		}
	}
	m, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("clean sweep incomplete: %s", rep.Summary())
	}
	if err := j.VerifyComplete(m.Kernels); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, matrixBytes(t, m)
}

// resumeFromFile opens a (possibly damaged) journal file, resumes the
// sweep against its prior, and returns the final matrix bytes. It
// fails the test if the open or resume errors, or if any recovered
// cell is double-counted (a skipped cell must match a prior row
// exactly once).
func resumeFromFile(t *testing.T, path string, space hw.Space) []byte {
	t.Helper()
	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatalf("OpenJournal on damaged file: %v", err)
	}
	defer j.Close()
	prior := j.Prior()
	opts := journalOpts()
	opts.OnRow = func(m *Matrix, r int) {
		if err := j.AppendRow(m, r); err != nil {
			t.Errorf("AppendRow during resume: %v", err)
		}
	}
	m, rep, err := Resume(context.Background(), testKernels(), space, opts, prior)
	if err != nil {
		t.Fatalf("Resume after salvage: %v", err)
	}
	if !rep.Complete() {
		t.Fatalf("resume left holes: %s", rep.Summary())
	}
	// No double-counting: every skipped cell corresponds to exactly
	// one complete prior row, everything else was recomputed.
	priorRows := 0
	if prior != nil {
		priorRows = len(prior.Kernels)
	}
	if rep.Skipped != priorRows*space.Size() {
		t.Fatalf("skipped %d cells with %d prior rows (%d cells/row)",
			rep.Skipped, priorRows, space.Size())
	}
	if err := j.VerifyComplete(m.Kernels); err != nil {
		t.Fatalf("VerifyComplete after resume: %v", err)
	}
	return matrixBytes(t, m)
}

// TestJournalTruncationAtEveryOffset is the torn-write harness: a
// finished journal cut at every possible byte offset must still open,
// salvage its clean prefix, and resume to a matrix byte-identical to
// the uninterrupted run.
func TestJournalTruncationAtEveryOffset(t *testing.T) {
	space := tinySpace(t)
	full, baseline := buildFullJournal(t, space)
	dir := t.TempDir()
	path := filepath.Join(dir, "cut.journal")
	for off := 0; off <= len(full); off++ {
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		got := resumeFromFile(t, path, space)
		if !bytes.Equal(got, baseline) {
			t.Fatalf("offset %d: resumed matrix differs from uninterrupted run", off)
		}
	}
}

// TestJournalBitFlipAtEveryOffset flips one bit at every byte offset.
// Flips inside the magic header make the file unidentifiable and must
// be rejected without modifying it; flips anywhere else must salvage
// and resume byte-identically.
func TestJournalBitFlipAtEveryOffset(t *testing.T) {
	space := tinySpace(t)
	full, baseline := buildFullJournal(t, space)
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.journal")
	for off := 0; off < len(full); off++ {
		damaged := append([]byte(nil), full...)
		damaged[off] ^= 1 << 3
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if off < len(journalMagic) {
			// The file no longer names itself a journal; refusing to
			// touch it protects real user files from being clobbered.
			if _, err := OpenJournal(path, space); err == nil {
				t.Fatalf("offset %d: corrupt magic accepted", off)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, damaged) {
				t.Fatalf("offset %d: rejected file was modified", off)
			}
			continue
		}
		got := resumeFromFile(t, path, space)
		if !bytes.Equal(got, baseline) {
			t.Fatalf("offset %d: resumed matrix differs from uninterrupted run", off)
		}
	}
}

// TestJournalV1MigrationAndSalvage: a v1 CSV journal — including one
// with a torn tail — still resumes, and the file comes back as v2.
func TestJournalV1MigrationAndSalvage(t *testing.T) {
	space := tinySpace(t)
	m, rep, err := RunContext(context.Background(), testKernels(), space, journalOpts())
	if err != nil || !rep.Complete() {
		t.Fatalf("clean sweep: %v %s", err, rep.Summary())
	}
	baseline := matrixBytes(t, m)

	// A v1 journal was a plain CSV; drop the last kernel's rows and
	// tear the final line to emulate a crash mid-append.
	lines := bytes.Split(bytes.TrimRight(baseline, "\n"), []byte("\n"))
	cut := 1 + 2*space.Size() // header + two complete rows
	v1 := bytes.Join(lines[:cut], []byte("\n"))
	v1 = append(v1, '\n')
	v1 = append(v1, lines[cut][:len(lines[cut])/2]...) // torn line, no newline

	path := filepath.Join(t.TempDir(), "v1.journal")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatalf("v1 journal rejected: %v", err)
	}
	s := j.Salvage()
	if s == nil || !s.MigratedV1 {
		t.Fatalf("salvage report %+v, want MigratedV1", s)
	}
	if s.DroppedBytes == 0 || s.DroppedRecords == 0 {
		t.Fatalf("torn v1 tail not counted: %+v", s)
	}
	prior := j.Prior()
	if prior == nil || len(prior.Kernels) != 2 {
		t.Fatalf("v1 salvage recovered %v, want the two complete rows", prior)
	}
	// The migrated file on disk is now v2.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		t.Fatalf("migrated file does not start with v2 magic: %.40q", data)
	}
	j.Close()

	got := resumeFromFile(t, path, space)
	if !bytes.Equal(got, baseline) {
		t.Fatal("resume from migrated v1 journal differs from clean run")
	}
}

// TestJournalCompletedArchiveReadable: gpusweep archives a finished
// journal as plain CSV; pointing -resume at that archive must skip
// everything rather than start over.
func TestJournalCompletedArchiveReadable(t *testing.T) {
	space := tinySpace(t)
	m, rep, err := RunContext(context.Background(), testKernels(), space, journalOpts())
	if err != nil || !rep.Complete() {
		t.Fatalf("clean sweep: %v %s", err, rep.Summary())
	}
	path := filepath.Join(t.TempDir(), "archive.csv")
	if err := m.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatalf("completed archive rejected: %v", err)
	}
	defer j.Close()
	prior := j.Prior()
	if prior == nil || len(prior.Kernels) != 3 {
		t.Fatalf("archive recovered %v rows, want all 3", prior)
	}
	if err := j.VerifyComplete(m.Kernels); err != nil {
		t.Fatalf("complete archive fails verification: %v", err)
	}
	if !reflect.DeepEqual(prior.Throughput, m.Throughput) {
		t.Fatal("archived values changed across CSV->journal migration")
	}
}

// TestJournalTornWriteSelfHeals drives AppendRow through the fault
// injector's torn-write wrapper: the append must fail loudly, the
// file must stay byte-identical to its pre-append state, and a later
// clean append must succeed from the healed offset.
func TestJournalTornWriteSelfHeals(t *testing.T) {
	space := tinySpace(t)
	m, rep, err := RunContext(context.Background(), testKernels(), space, journalOpts())
	if err != nil || !rep.Complete() {
		t.Fatalf("clean sweep: %v %s", err, rep.Summary())
	}
	path := filepath.Join(t.TempDir(), "torn.journal")
	in := fault.Injector{TornWriteRate: 1, Seed: 3}
	torn := 0
	in.OnDecision = func(d fault.Decision) {
		if d.Kind == fault.KindTornWrite {
			torn++
		}
	}
	j, err := OpenJournalWith(path, space, JournalOptions{WrapWriter: in.WrapWriter})
	// With rate 1 even the header write tears; the open itself may
	// fail, which is fine — the file must then be empty or a clean
	// magic prefix handled on reopen.
	if err == nil {
		before, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		aerr := j.AppendRow(m, 0)
		if aerr == nil {
			t.Fatal("torn append reported success")
		}
		if !errors.Is(aerr, fault.ErrTornWrite) {
			t.Fatalf("append error %v does not wrap ErrTornWrite", aerr)
		}
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(before, after) {
			t.Fatal("torn append left partial bytes behind (self-heal failed)")
		}
		j.Close()
	}
	if torn == 0 {
		t.Fatal("injector fired no torn writes at rate 1")
	}
	// Reopen without faults: whatever state the torn writer left must
	// recover to a working journal.
	j2, err := OpenJournal(path, space)
	if err != nil {
		t.Fatalf("reopen after torn writes: %v", err)
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

// TestKillResumeEquivalence is the acceptance drill: one sweep is
// interrupted by all three simulated failure modes — an engine panic,
// a stalled engine call cut short by cancellation, and a torn journal
// write left on disk by the "crash" — and the resumed run must
// produce a matrix byte-identical to an uninterrupted sweep.
func TestKillResumeEquivalence(t *testing.T) {
	space := testSpace(t)
	clean, rep, err := RunContext(context.Background(), testKernels(), space, journalOpts())
	if err != nil || !rep.Complete() {
		t.Fatalf("clean sweep: %v %s", err, rep.Summary())
	}
	baseline := matrixBytes(t, clean)

	path := filepath.Join(t.TempDir(), "crash.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Fault model: rare panics, one long stall. The first stall
	// decision cancels the sweep mid-flight; the cooperative stall
	// returns at once with the context's error.
	var once sync.Once
	in := fault.Injector{PanicRate: 0.01, StallRate: 0.005, Stall: 300 * time.Millisecond, Seed: 7}
	in.OnDecision = func(d fault.Decision) {
		if d.Kind == fault.KindStall {
			once.Do(cancel)
		}
	}
	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	opts := journalOpts()
	opts.Workers = 3
	opts.Row = in.WrapRow(gcn.RoundRow)
	opts.OnRow = func(m *Matrix, r int) { _ = j.AppendRow(m, r) }
	_, rep1, err := RunContext(ctx, testKernels(), space, opts)
	if err == nil {
		t.Fatalf("interrupted sweep reported success: %s", rep1.Summary())
	}
	checkAccounting(t, rep1)
	if rep1.Canceled == 0 {
		t.Fatalf("no canceled cell despite the stall drill: %s", rep1.Summary())
	}
	panicked := false
	for _, f := range rep1.Failures {
		if errors.Is(f.Err, ErrEnginePanic) {
			panicked = true
		}
	}
	if !panicked {
		t.Fatalf("no panic survived isolation into the failure records: %s", rep1.Summary())
	}
	j.Close()

	// The "crash" also tore the last journal write: leave half of a
	// framed record on disk.
	framed, err := rowRecord(clean, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(framed[:len(framed)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume: the torn tail is salvaged, the panicked/stalled rows
	// recomputed, and the result is byte-identical.
	j2, err := OpenJournal(path, space)
	if err != nil {
		t.Fatalf("resume open after crash: %v", err)
	}
	defer j2.Close()
	s := j2.Salvage()
	if s == nil || s.DroppedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", s)
	}
	opts2 := journalOpts()
	opts2.OnRow = func(m *Matrix, r int) {
		if err := j2.AppendRow(m, r); err != nil {
			t.Errorf("AppendRow during resume: %v", err)
		}
	}
	m2, rep2, err := Resume(context.Background(), testKernels(), space, opts2, j2.Prior())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !rep2.Complete() {
		t.Fatalf("resume incomplete: %s", rep2.Summary())
	}
	if err := j2.VerifyComplete(m2.Kernels); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(matrixBytes(t, m2), baseline) {
		t.Fatal("kill-resume matrix differs from uninterrupted run")
	}
}

// TestScanJournalRejectsForeignSpace: resuming a journal against a
// different grid must be a hard error, not a silent salvage.
func TestScanJournalRejectsForeignSpace(t *testing.T) {
	small := tinySpace(t)
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := OpenJournal(path, small)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other, err := hw.NewSpace([]int{4, 24, 44}, []float64{200, 600, 1000}, []float64{150, 700, 1250})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, other); err == nil {
		t.Fatal("journal accepted against a different configuration space")
	}
}

// TestJournalRecordFraming pins the v2 wire format: CRC over the JSON
// payload, decimal length, one record per line.
func TestJournalRecordFraming(t *testing.T) {
	rec := journalRecord{Kernel: "k", Tput: []float64{1}, TimeNS: []float64{2}, Bound: []gcn.Bound{0}}
	framed, err := frameRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	var crc uint32
	var plen int
	var payload string
	n, err := fmt.Sscanf(string(framed), "%08x %d %s", &crc, &plen, &payload)
	if err != nil || n != 3 {
		t.Fatalf("framed record %q does not parse: %v", framed, err)
	}
	if framed[len(framed)-1] != '\n' {
		t.Fatalf("record not newline-terminated: %q", framed)
	}
	got, next, reason := parseRecord(framed, 0)
	if reason != "" {
		t.Fatalf("parseRecord rejected its own framing: %s", reason)
	}
	if next != int64(len(framed)) {
		t.Fatalf("parseRecord consumed %d of %d bytes", next, len(framed))
	}
	if got.Kernel != "k" || len(got.Tput) != 1 || got.Tput[0] != 1 {
		t.Fatalf("round-tripped record %+v", got)
	}

	// The space record is hw.Space's JSON form, and the decoder refuses
	// an unknown field inside it as it does at the top level.
	space := hw.Space{CUCounts: []int{4}, CoreClocksMHz: []float64{200}, MemClocksMHz: []float64{150.5}}
	framed, err = frameRecord(journalRecord{Space: &space})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"space":{"cus":[4],"core_mhz":[200],"mem_mhz":[150.5]}}`
	if !bytes.HasSuffix(framed, []byte(want+"\n")) {
		t.Fatalf("space record %q, want payload %s", framed, want)
	}
	if got, _, reason := parseRecord(framed, 0); reason != "" || !got.Space.Equal(space) {
		t.Fatalf("space record round trip: %+v %q", got.Space, reason)
	}
	extra := durable.Frame([]byte(`{"space":{"cus":[4],"core_mhz":[200],"mem_mhz":[150.5],"l2_kb":[1024]}}`))
	if _, _, reason := parseRecord(extra, 0); reason == "" {
		t.Fatal("a space record with an unknown field was accepted")
	}
}

// TestResumeRecomputesStalledRow: an archive written by an earlier
// version can hold stalled cells. It still decodes, and Resume
// recomputes the stalled cell's row — reusing every other row — to the
// uninterrupted run's matrix, whether the archive is read as a prior
// matrix or reopened as a journal.
func TestResumeRecomputesStalledRow(t *testing.T) {
	space := tinySpace(t)
	m, err := Run(testKernels(), space, journalOpts())
	if err != nil {
		t.Fatal(err)
	}
	baseline := matrixBytes(t, m)
	m.Status[1][2], m.Throughput[1][2], m.TimeNS[1][2] = StatusStalled, 0, 0
	old := matrixBytes(t, m)
	prior, err := ReadCSV(bytes.NewReader(old), space)
	if err != nil {
		t.Fatal(err)
	}
	if prior.Status[1][2] != StatusStalled {
		t.Fatal("stalled cell did not decode from the archive")
	}
	got, rep, err := Resume(context.Background(), testKernels(), space, journalOpts(), prior)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.Skipped != (len(m.Kernels)-1)*space.Size() {
		t.Fatalf("resume did not recompute exactly the stalled row: %s", rep.Summary())
	}
	if !bytes.Equal(matrixBytes(t, got), baseline) {
		t.Fatal("resumed matrix differs from the uninterrupted run")
	}
	path := filepath.Join(t.TempDir(), "old.csv")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumeFromFile(t, path, space), baseline) {
		t.Fatal("journal resume differs from the uninterrupted run")
	}
}
