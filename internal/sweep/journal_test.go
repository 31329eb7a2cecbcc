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
	"strings"
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

// TestSalvageCountsDroppedRecords pins SalvageReport.DroppedRecords,
// which gpusweep -resume prints, with DroppedBytes: a journal cut
// inside its last record drops that one record; a checksum failure
// drops the record it breaks and the k whole records behind it, each
// counted by its frame; a garbage tail counts as one record.
func TestSalvageCountsDroppedRecords(t *testing.T) {
	space := tinySpace(t)
	full, _ := buildFullJournal(t, space)
	_, off, why := durable.Parse(full, int64(len(journalMagic)))
	var starts []int64 // where each row record begins
	for why == "" && off < int64(len(full)) {
		starts = append(starts, off)
		_, off, why = durable.Parse(full, off)
	}
	if why != "" || len(starts) < 3 {
		t.Fatalf("the journal holds %d whole row records (%s), want at least 3", len(starts), why)
	}
	flipped := append([]byte(nil), full...)
	flipped[starts[0]+30] ^= 1 // in the first row record's payload
	size := int64(len(full))
	for _, c := range []struct {
		what    string
		data    []byte
		bytes   int64
		records int
	}{
		{"a cut inside the last record", full[:size-5], size - 5 - starts[len(starts)-1], 1},
		{"a checksum failure", flipped, size - starts[0], len(starts)},
		{"a garbage tail", append(append([]byte(nil), full...), "not a frame\n"...), 12, 1},
	} {
		path := filepath.Join(t.TempDir(), "salvage.journal")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, space)
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		s := j.Salvage()
		j.Close()
		if s == nil || s.DroppedBytes != c.bytes || s.DroppedRecords != c.records {
			t.Errorf("%s: salvage %+v, want %d bytes and %d records dropped", c.what, s, c.bytes, c.records)
		}
	}
}

// TestCheckReplicaMatchesRecovery: a replica check accepts exactly the
// bytes recovery keeps whole. A journal cut at every offset, or with
// one bit flipped at every offset, passes CheckReplica as a whole image
// if and only if the reference scan (refScan) keeps every byte of it;
// so do its row records appended to a replica that holds its header. An append to a
// replica that does not exist is refused, and Image gives back what the
// journal holds on disk.
func TestCheckReplicaMatchesRecovery(t *testing.T) {
	space := tinySpace(t)
	full, _ := buildFullJournal(t, space)
	_, head, why := durable.Parse(full, int64(len(journalMagic)))
	if why != "" {
		t.Fatal(why)
	}
	dir := t.TempDir()
	replica := filepath.Join(dir, "replica.journal")
	if err := os.WriteFile(replica, full[:head], 0o644); err != nil {
		t.Fatal(err)
	}
	kept := func(img []byte) bool {
		_, good, refused := refScan(img, hw.Space{})
		return !refused && good > 0 && good == int64(len(img))
	}
	check := func(what string, img []byte) {
		t.Helper()
		want := kept(img)
		if err := CheckReplica(replica, img, false); (err == nil) != want {
			t.Fatalf("%s: whole image refused %v, recovery keeps it whole %v (%v)", what, err != nil, want, err)
		}
		if int64(len(img)) >= head && bytes.Equal(img[:head], full[:head]) {
			if err := CheckReplica(replica, img[head:], true); (err == nil) != want {
				t.Fatalf("%s: append refused %v, recovery keeps it whole %v (%v)", what, err != nil, want, err)
			}
		}
	}
	for off := 0; off <= len(full); off++ {
		check(fmt.Sprintf("cut at %d", off), full[:off])
	}
	for off := 0; off < len(full); off++ {
		damaged := append([]byte(nil), full...)
		damaged[off] ^= 1 << 3
		check(fmt.Sprintf("bit flipped at %d", off), damaged)
	}
	// A soundly framed row record of another space, and a record whose
	// planes fail the hygiene checks, are refused although their frames
	// hold.
	other, err := EncodePlanes("other", []float64{1, 2}, []float64{1, 2}, []gcn.Bound{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	check("a row of another space", append(append([]byte(nil), full...), durable.Frame(other.payload)...))
	first, _, why := durable.Parse(full, head)
	if why != "" {
		t.Fatal(why)
	}
	zero := append([]byte(nil), first...)
	clear(zero[len(zero)-PackedBytes(space.Size()):][:8]) // the first cell's throughput
	check("a zero throughput", append(append([]byte(nil), full...), durable.Frame(zero)...))
	if err := CheckReplica(filepath.Join(dir, "missing.journal"), full[head:], true); err == nil {
		t.Fatal("an append to a missing replica passed")
	}

	path := filepath.Join(dir, "copy.journal")
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if img, err := j.Image(); err != nil || !bytes.Equal(img, full) {
		t.Fatalf("Image of a reopened journal: %d bytes, want %d (%v)", len(img), len(full), err)
	}
}

// TestReplicaAppendCheckAllocatesPerAppend: a replica append's check
// reads the replica's head and walks the appended records where they
// lie, keeping no index of them, so what it allocates does not grow
// with the rows it checks.
func TestReplicaAppendCheckAllocatesPerAppend(t *testing.T) {
	space := tinySpace(t)
	full, _ := buildFullJournal(t, space)
	_, head, why := durable.Parse(full, int64(len(journalMagic)))
	if why != "" {
		t.Fatal(why)
	}
	_, second, why := durable.Parse(full, head)
	if why != "" {
		t.Fatal(why)
	}
	replica := filepath.Join(t.TempDir(), "replica.journal")
	if err := os.WriteFile(replica, full[:head], 0o644); err != nil {
		t.Fatal(err)
	}
	allocs := func(b []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := CheckReplica(replica, b, true); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, all := allocs(full[head:second]), allocs(full[head:]); all > one {
		t.Fatalf("checking an append of one row allocated %v times, of every row %v times", one, all)
	}
}

// TestEarlierFormatsRefusedByName: a file an earlier build wrote — a
// v2 journal, whole or torn, a v1 CSV journal with a torn tail, a
// finished WriteCSV archive — and a foreign file are refused by
// OpenJournal with an error that names what the file is, as a v2
// journal is by ReadJournal and a 7-column CSV by ReadCSV, and every
// such file is left byte for byte as it was.
func TestEarlierFormatsRefusedByName(t *testing.T) {
	space := tinySpace(t)
	m, rep, err := RunContext(context.Background(), testKernels(), space, journalOpts())
	if err != nil || !rep.Complete() {
		t.Fatalf("clean sweep: %v %s", err, rep.Summary())
	}
	archive := matrixBytes(t, m)
	v2 := refV2Journal(t, m)
	// A v1 journal was a plain CSV: two complete rows, then a line torn
	// by a crash mid-append.
	lines := bytes.SplitAfter(archive, []byte("\n"))
	cut := 1 + 2*space.Size() // header + two complete rows
	v1 := append(bytes.Join(lines[:cut], nil), lines[cut][:len(lines[cut])/2]...)
	var seven bytes.Buffer // the archive without its status column
	for _, line := range lines[:len(lines)-1] {
		seven.Write(line[:bytes.LastIndexByte(line, ',')])
		seven.WriteByte('\n')
	}
	openJournal := func(path string) error {
		j, err := OpenJournal(path, space)
		if err == nil {
			j.Close()
		}
		return err
	}
	readJournal := func(path string) error {
		_, err := ReadJournal(path, space)
		return err
	}
	readCSV := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = ReadCSV(f, space)
		return err
	}
	const (
		v2Name  = "a v2 journal"
		csvName = "a sweep CSV (a v1 journal or a finished gpusweep archive)"
	)
	for _, tc := range []struct {
		name string
		data []byte
		open func(path string) error
		want string
	}{
		{"v2-journal", v2, openJournal, v2Name},
		{"torn-v2-journal", v2[:len(v2)-7], openJournal, v2Name},
		{"v2-journal-read", v2, readJournal, v2Name},
		{"torn-v2-journal-read", v2[:len(v2)-7], readJournal, v2Name},
		{"torn-v1-csv-journal", v1, openJournal, csvName},
		{"writecsv-archive", archive, openJournal, csvName},
		{"seven-column-csv", seven.Bytes(), readCSV, "a 7-column sweep CSV"},
		{"foreign-file", []byte("do not overwrite me\n"), openJournal, "is not a journal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "file")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := tc.open(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
			if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, tc.data) {
				t.Fatalf("the refused file changed (%v)", err)
			}
		})
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
	w, err := walkJournal(imageFrames(image), space)
	if err != nil || w.good != int64(len(image)) {
		t.Fatalf("row record walk: %+v %v", w, err)
	}
	m, err := w.matrix()
	if err != nil || m == nil || m.Kernels[0] != "k" ||
		m.Throughput[0][1] != 0.5 || m.TimeNS[0][1] != 10 || m.Bound[0][1] != gcn.BoundLaunch {
		t.Fatalf("row record round trip: %+v %v", m, err)
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
// row as one JSON record. It is the earlier format the journal must
// refuse by name.
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

// TestResumeRecomputesStalledRow: an archive written by an earlier
// version can hold stalled cells. It still decodes through ReadCSV,
// and Resume recomputes the stalled cell's row — reusing every other
// row — to the uninterrupted run's matrix.
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
}
