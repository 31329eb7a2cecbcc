package sweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
// with a torn tail — still resumes, and the file comes back as v3.
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
	if s == nil || s.MigratedFrom != "v1 CSV" {
		t.Fatalf("salvage report %+v, want a v1 CSV migration", s)
	}
	if s.DroppedBytes == 0 || s.DroppedRecords == 0 {
		t.Fatalf("torn v1 tail not counted: %+v", s)
	}
	prior := j.Prior()
	if prior == nil || len(prior.Kernels) != 2 {
		t.Fatalf("v1 salvage recovered %v, want the two complete rows", prior)
	}
	// The migrated file on disk is now v3.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("gpuscale-journal v3\n")) {
		t.Fatalf("migrated file does not start with v3 magic: %.40q", data)
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

// TestJournalRecordFraming pins the v3 format: the magic; the space
// record, hw.Space's JSON form under "space", which refuses an unknown
// field; a row record, the kernel name (uvarint length, then bytes)
// then the packed planes — every throughput, then every time, as
// little-endian float64 bits, then one byte per bound — whose binary
// bytes the CRC frame delimits by length; and a row digest, "v3:" then
// FNV-64a over the row record as 16 hex digits.
func TestJournalRecordFraming(t *testing.T) {
	space := hw.Space{CUCounts: []int{4}, CoreClocksMHz: []float64{200}, MemClocksMHz: []float64{150.5, 1250}}
	header, err := journalHeader(space)
	if err != nil {
		t.Fatal(err)
	}
	const spaceJSON = `{"space":{"cus":[4],"core_mhz":[200],"mem_mhz":[150.5,1250]}}`
	if want := append([]byte("gpuscale-journal v3\n"), durable.Frame([]byte(spaceJSON))...); !bytes.Equal(header, want) {
		t.Fatalf("journal header %q, want %q", header, want)
	}
	if got, reason := parseSpaceRecord([]byte(spaceJSON)); reason != "" || !got.Equal(space) {
		t.Fatalf("space record round trip: %+v %q", got, reason)
	}
	extra := `{"space":{"cus":[4],"core_mhz":[200],"mem_mhz":[150.5],"l2_kb":[1024]}}`
	if _, reason := parseSpaceRecord([]byte(extra)); reason == "" {
		t.Fatal("a space record with an unknown field was accepted")
	}

	rec, err := EncodePlanes("k", []float64{1, 0.5}, []float64{2, 10},
		[]gcn.Bound{gcn.BoundCompute, gcn.BoundLaunch})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 'k'}
	for _, v := range []float64{1, 0.5, 2, 10} { // 10 encodes a '\n' byte
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	want = append(want, byte(gcn.BoundCompute), byte(gcn.BoundLaunch))
	if !bytes.Equal(rec.payload, want) || !bytes.Equal(rec.Packed(), want[2:]) {
		t.Fatalf("row record %x, want %x", rec.payload, want)
	}
	if _, err := EncodePlanes("k", []float64{1}, []float64{1}, []gcn.Bound{gcn.BoundLaunch + 256}); err == nil {
		t.Fatal("a bound that would wrap into range as a byte was encoded")
	}
	image := append(header, durable.Frame(rec.payload)...)
	m, good, reason, err := scanJournal(image, space)
	if err != nil || good != int64(len(image)) || m == nil || m.Kernels[0] != "k" ||
		m.Throughput[0][1] != 0.5 || m.TimeNS[0][1] != 10 || m.Bound[0][1] != gcn.BoundLaunch {
		t.Fatalf("row record round trip: %+v %d/%d %q %v", m, good, len(image), reason, err)
	}

	h := fnv.New64a()
	h.Write(want)
	if d := RecordDigest(rec); d != fmt.Sprintf("v3:%016x", h.Sum64()) || !CurrentDigest(d) {
		t.Fatalf("record digest %q", d)
	}
	if CurrentDigest(fmt.Sprintf("%016x", h.Sum64())) {
		t.Fatal("a bare 16-hex-digit (v2) digest reads as current")
	}
}

// refV2Journal renders m's rows, in order, as a journal v2 image, with
// the encoder journal v2 wrote: the magic, the space record, then each
// row as one JSON record. A kernel may appear twice.
func refV2Journal(tb testing.TB, m *Matrix) []byte {
	tb.Helper()
	b := []byte("gpuscale-journal v2\n")
	payload, err := json.Marshal(map[string]any{"space": m.Space})
	if err != nil {
		tb.Fatal(err)
	}
	b = append(b, durable.Frame(payload)...)
	for r, k := range m.Kernels {
		payload, err := json.Marshal(struct {
			Kernel string      `json:"kernel"`
			Tput   []float64   `json:"tput"`
			TimeNS []float64   `json:"time_ns"`
			Bound  []gcn.Bound `json:"bound"`
		}{k, m.Throughput[r], m.TimeNS[r], m.Bound[r]})
		if err != nil {
			tb.Fatal(err)
		}
		b = append(b, durable.Frame(payload)...)
	}
	return b
}

// TestJournalV2Migration: a v2 journal, written by v2's own encoder
// with one kernel journaled twice (replay is last-record-wins) and a
// torn last record, opens to the prior the v2 decoder reads from it,
// bit for bit, and comes back as v3: the file is that prior's
// canonical v3 image, it reopens clean to the same prior, and it
// resumes to the uninterrupted run's matrix.
func TestJournalV2Migration(t *testing.T) {
	space := tinySpace(t)
	m, rep, err := RunContext(context.Background(), testKernels(), space, journalOpts())
	if err != nil || !rep.Complete() {
		t.Fatalf("clean sweep: %v %s", err, rep.Summary())
	}
	baseline := matrixBytes(t, m)
	stale := slices.Clone(m.Throughput[0])
	stale[0] *= 2
	v2 := refV2Journal(t, &Matrix{Space: space, Kernels: []string{m.Kernels[0], m.Kernels[1], m.Kernels[0], m.Kernels[2]},
		Throughput: [][]float64{stale, m.Throughput[1], m.Throughput[0], m.Throughput[2]},
		TimeNS:     [][]float64{m.TimeNS[0], m.TimeNS[1], m.TimeNS[0], m.TimeNS[2]},
		Bound:      [][]gcn.Bound{m.Bound[0], m.Bound[1], m.Bound[0], m.Bound[2]}})
	v2 = v2[:len(v2)-7] // tear the last record
	path := filepath.Join(t.TempDir(), "v2.journal")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path, space); err == nil {
		t.Fatal("ReadJournal accepted a torn v2 journal")
	}
	before, _, _, err := scanJournal(v2, space)
	if err != nil || before == nil || !slices.Equal(before.Kernels, m.Kernels[:2]) ||
		!sameMatrix(before, &Matrix{Kernels: m.Kernels[:2], Throughput: m.Throughput[:2],
			TimeNS: m.TimeNS[:2], Bound: m.Bound[:2], Status: before.Status}) {
		t.Fatalf("the v2 decoder read %+v (%v), want the first two rows, last record winning", before, err)
	}

	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	s := j.Salvage()
	if s == nil || s.MigratedFrom != "v2" || s.DroppedBytes == 0 || s.DroppedRecords != 1 {
		t.Fatalf("salvage report %+v, want a v2 migration that dropped the torn record", s)
	}
	if !sameMatrix(j.Prior(), before) {
		t.Fatal("the migrated journal's Prior differs from the v2 rows")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := CanonicalJournalBytes(before, before.Kernels); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("the migrated file is not the v3 image of the v2 rows (%v)", err)
	}
	j2, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	if s := j2.Salvage(); s != nil || !sameMatrix(j2.Prior(), before) {
		t.Fatalf("the migrated journal reopens with salvage %+v or a different Prior", s)
	}
	j2.Close()
	if got := resumeFromFile(t, path, space); !bytes.Equal(got, baseline) {
		t.Fatal("resume from a migrated v2 journal differs from the uninterrupted run")
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
