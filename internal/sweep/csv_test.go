package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/suites"
)

// refWriteCSV is the encoder WriteCSV replaced, kept as its oracle:
// every cell rendered as an eight-field record and written through
// encoding/csv.
func refWriteCSV(m *Matrix, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	configs := m.Space.Configs()
	for r := range m.Kernels {
		for c := range configs {
			if err := cw.Write(refRecord(m, r, c, configs)); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// refRecord renders one cell as a CSV record.
func refRecord(m *Matrix, r, c int, configs []hw.Config) []string {
	cfg := configs[c]
	status := StatusOK
	if m.Status != nil && m.Status[r] != nil {
		status = m.Status[r][c]
	}
	return []string{
		m.Kernels[r],
		strconv.Itoa(cfg.CUs),
		strconv.FormatFloat(cfg.CoreClockMHz, 'g', -1, 64),
		strconv.FormatFloat(cfg.MemClockMHz, 'g', -1, 64),
		strconv.FormatFloat(m.Throughput[r][c], 'g', -1, 64),
		strconv.FormatFloat(m.TimeNS[r][c], 'g', -1, 64),
		m.Bound[r][c].String(),
		status.String(),
	}
}

// studyMatrix is the seed-1 study: the whole corpus in seed-1 order on
// the study grid, round engine, 2% noise under seed 1 — the matrix one
// job of the end-to-end benchmark archives.
var studyMatrix = sync.OnceValues(func() (*Matrix, error) {
	entries := suites.AllEntries(suites.Corpus())
	ks := make([]*kernel.Kernel, len(entries))
	for i, j := range rand.New(rand.NewSource(1)).Perm(len(entries)) {
		ks[i] = entries[j].Kernel
	}
	return Run(ks, hw.StudySpace(), Options{Engine: Round, NoiseStdDev: 0.02, Seed: 1})
})

// TestWriteCSVMatchesReference: WriteCSV emits exactly the bytes of the
// per-cell encoding/csv renderer it replaced — for kernel names
// encoding/csv must quote, every cell status and bound (named or not),
// a row without a status plane, a matrix without one, and the full
// seed-1 study.
func TestWriteCSVMatchesReference(t *testing.T) {
	space := testSpace(t)
	names := []string{"p,comma", `p"quote"`, " leading", "\tk", "new\nline", `\.`, "cr\r\nlf", "", "plain"}
	values := []float64{0, 1, 1.5, 1e21, 1e-7, 123456789.125, math.MaxFloat64, 5e-324, math.Copysign(0, -1)}
	n := space.Size()
	m := &Matrix{Space: space, Kernels: names}
	for r := range names {
		tput, tns := make([]float64, n), make([]float64, n)
		bound, status := make([]gcn.Bound, n), make([]CellStatus, n)
		for c := 0; c < n; c++ {
			tput[c] = values[(r+c)%len(values)]
			tns[c] = values[(2*r+c+3)%len(values)]
			// Every named bound and status, and unnamed ones around them.
			bound[c] = gcn.Bound(c%(int(gcn.BoundLaunch)+2) - r%2)
			status[c] = CellStatus(c % (int(StatusQuarantined) + 2))
		}
		bound[n-1] = 9
		m.Throughput = append(m.Throughput, tput)
		m.TimeNS = append(m.TimeNS, tns)
		m.Bound = append(m.Bound, bound)
		m.Status = append(m.Status, status)
	}
	m.Status[1] = nil
	noStatus := &Matrix{Space: space, Kernels: m.Kernels, Throughput: m.Throughput, TimeNS: m.TimeNS, Bound: m.Bound}
	study, err := studyMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *Matrix
	}{{"quoting", m}, {"nil status plane", noStatus}, {"seed-1 study", study}} {
		var got, want bytes.Buffer
		if err := c.m.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := refWriteCSV(c.m, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			i := 0
			for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
				i++
			}
			t.Errorf("%s: WriteCSV differs from encoding/csv at byte %d of %d: %.60q vs %.60q",
				c.name, i, want.Len(), got.Bytes()[i:], want.Bytes()[i:])
		}
	}
}

// partialMatrix sweeps the test kernels under a fault storm with no
// retries, guaranteeing a mix of ok and failed cells.
func partialMatrix(t *testing.T, space hw.Space) *Matrix {
	t.Helper()
	in := fault.Injector{ErrorRate: 0.3, Seed: 21}
	m, rep, err := RunContext(context.Background(), testKernels(), space,
		Options{Row: in.WrapRow(gcn.RoundRow)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.OK == 0 {
		t.Fatalf("fault storm produced no mix: %s", rep.Summary())
	}
	return m
}

// TestCSVRoundTripWithStatus writes a partial matrix — including its
// Status plane — and asserts a deep-equal read-back.
func TestCSVRoundTripWithStatus(t *testing.T) {
	space := testSpace(t)
	m := partialMatrix(t, space)
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, space)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Kernels, m.Kernels) {
		t.Fatalf("kernels differ: %v vs %v", got.Kernels, m.Kernels)
	}
	if !reflect.DeepEqual(got.Throughput, m.Throughput) {
		t.Fatal("throughput differs after round trip")
	}
	if !reflect.DeepEqual(got.TimeNS, m.TimeNS) {
		t.Fatal("times differ after round trip")
	}
	if !reflect.DeepEqual(got.Bound, m.Bound) {
		t.Fatal("bounds differ after round trip")
	}
	if !reflect.DeepEqual(got.Status, m.Status) {
		t.Fatal("status plane differs after round trip")
	}
}

// TestReadCSVDegenerateGrids: on grids where an axis value's spelling
// does not name its own position — a repeated value, NaN, a zero of
// either sign — ReadCSV decodes WriteCSV's output exactly as the
// reference decoder does.
func TestReadCSVDegenerateGrids(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, space := range []hw.Space{
		{CUCounts: []int{4, 4}, CoreClocksMHz: []float64{200}, MemClocksMHz: []float64{150, 700, 150}},
		{CUCounts: []int{4}, CoreClocksMHz: []float64{math.NaN(), 200}, MemClocksMHz: []float64{150}},
		{CUCounts: []int{4}, CoreClocksMHz: []float64{0, negZero}, MemClocksMHz: []float64{negZero, 0}},
	} {
		n := space.Size()
		m := &Matrix{Space: space, Kernels: []string{"k"}, Bound: [][]gcn.Bound{make([]gcn.Bound, n)}}
		m.Throughput = [][]float64{make([]float64, n)}
		m.TimeNS = [][]float64{make([]float64, n)}
		for c := 0; c < n; c++ {
			m.Throughput[0][c], m.TimeNS[0][c] = float64(c+1), float64(10*c+1)
		}
		var buf bytes.Buffer
		if err := m.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCSV(bytes.NewReader(buf.Bytes()), space)
		want, werr := refReadCSV(bytes.NewReader(buf.Bytes()), space)
		if (err == nil) != (werr == nil) {
			t.Fatalf("grid %v: error %v, the reference decoder %v", space, err, werr)
		}
		if err == nil && !sameMatrix(got, want) {
			t.Fatalf("grid %v: matrix differs from the reference decoder's", space)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	space := testSpace(t)
	const hdr = "kernel,cus,core_mhz,mem_mhz,throughput,time_ns,bound,status\n"
	cases := []struct {
		name, input string
	}{
		{"empty", ""},
		{"wrong header", "x,y\n1,2\n"},
		{"bad cu", hdr + "k,notanint,200,150,1,1,compute,ok\n"},
		{"off-grid", hdr + "k,5,200,150,1,1,compute,ok\n"},
		{"bad bound", hdr + "k,4,200,150,1,1,teapot,ok\n"},
		{"bad status", hdr + "k,4,200,150,1,1,compute,maybe\n"},
		{"incomplete grid", hdr + "k,4,200,150,1,1,compute,ok\n"},
		{"no rows", hdr},
		{"short record", hdr + "k,4,200\n"},
		{"bad throughput", hdr + "k,4,200,150,fast,1,compute,ok\n"},
	}
	for _, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.input), space)
		if err == nil {
			t.Errorf("case %q accepted", c.name)
			continue
		}
		if err.Error() == "" {
			t.Errorf("case %q produced an empty error", c.name)
		}
	}
}

func TestJournalCheckpointAndRecovery(t *testing.T) {
	space := testSpace(t)
	path := filepath.Join(t.TempDir(), "journal.csv")
	j, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	if j.Prior() != nil {
		t.Fatal("fresh journal has a prior matrix")
	}
	// Sweep with the journal wired into OnRow, kernel b down.
	opts := Options{
		Row: cellFunc(func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
			if k.Name == "p.b" {
				return gcn.Result{}, errors.New("b is down")
			}
			return gcn.Simulate(k, cfg)
		}),
		OnRow: func(m *Matrix, r int) {
			if err := j.AppendRow(m, r); err != nil {
				t.Errorf("AppendRow: %v", err)
			}
		},
	}
	if _, _, err := RunContext(context.Background(), testKernels(), space, opts); err != nil {
		t.Fatal(err)
	}
	if err := j.VerifyComplete([]string{"p.a", "p.b", "p.c"}); err == nil {
		t.Fatal("journal with a down kernel verified complete")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the two healthy rows must be recovered, b's absent.
	j2, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	prior := j2.Prior()
	if prior == nil {
		t.Fatal("reopened journal lost its rows")
	}
	if prior.Row("p.a") < 0 || prior.Row("p.c") < 0 {
		t.Fatalf("recovered kernels %v, want p.a and p.c", prior.Kernels)
	}
	if prior.Row("p.b") >= 0 {
		t.Fatal("failed kernel p.b leaked into the journal")
	}

	// Resume against the prior, journaling the recomputed row.
	opts2 := Options{
		OnRow: func(m *Matrix, r int) {
			if err := j2.AppendRow(m, r); err != nil {
				t.Errorf("AppendRow: %v", err)
			}
		},
	}
	m, rep, err := Resume(context.Background(), testKernels(), space, opts2, prior)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 2*space.Size() {
		t.Fatalf("resume skipped %d cells, want %d", rep.Skipped, 2*space.Size())
	}
	if err := j2.VerifyComplete(m.Kernels); err != nil {
		t.Fatalf("journal incomplete after resume: %v", err)
	}

	// The finished journal recovers cleanly (no salvage) and equals a
	// clean sweep.
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path, space)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if s := j3.Salvage(); s != nil {
		t.Fatalf("clean journal reported salvage: %+v", s)
	}
	archived := j3.Prior()
	if archived == nil {
		t.Fatal("finished journal recovered no rows")
	}
	clean, err := Run(testKernels(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range clean.Kernels {
		ar, cr := archived.Row(name), clean.Row(name)
		if ar < 0 {
			t.Fatalf("kernel %s missing from archive", name)
		}
		if !reflect.DeepEqual(archived.Throughput[ar], clean.Throughput[cr]) {
			t.Fatalf("archived row %s differs from clean sweep", name)
		}
	}
}

func TestOpenJournalRejectsForeignFile(t *testing.T) {
	space := testSpace(t)
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("do not overwrite me\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, space); err == nil {
		t.Fatal("journal opened over a non-CSV file")
	}
	// The file must be untouched.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "do not overwrite me\n" {
		t.Fatal("foreign file was modified")
	}
}

// syntheticMatrix is a complete matrix of n kernels over space whose
// every cell is an OK measurement unique to it.
func syntheticMatrix(space hw.Space, n int) *Matrix {
	m := &Matrix{Space: space}
	for r := range n {
		tput, tns := make([]float64, space.Size()), make([]float64, space.Size())
		for c := range tput {
			tput[c], tns[c] = 1+float64(r)/7+float64(c)/1000, 100+float64(r*space.Size()+c)/3
		}
		m.Kernels = append(m.Kernels, fmt.Sprintf("s/p/k%03d", r))
		m.Throughput = append(m.Throughput, tput)
		m.TimeNS = append(m.TimeNS, tns)
		m.Bound = append(m.Bound, make([]gcn.Bound, space.Size()))
		m.Status = append(m.Status, okRow(space.Size()))
	}
	return m
}

// failingReader serves data, then fails every read with err.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// checkJoined fails t unless the goroutine count is back to before (or
// below it, if a goroutine an earlier test left has since ended). A
// joined goroutine may still be leaving for a moment after its join, so
// the count gets a short while to settle; a goroutine left blocked
// never lets it.
func checkJoined(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%s: %d goroutines before the call, %d after", what, before, n)
	}
}

// TestReadCSVBatchEdges: ReadCSV's two stages hand records over in
// batches, so every kind of error — a bad number, a wrong field count,
// a bare quote (encoding/csv's own error) and a failing reader — is
// planted at the first and the last record of a batch and on the
// file's last line, in files that end on a batch edge and past one.
// Each must come back as the reference decoder's error, clean files as
// its matrix, and every call must join its goroutine before it returns.
func TestReadCSVBatchEdges(t *testing.T) {
	space := tinySpace(t)
	for _, kernels := range []int{4 * csvBatchRecords / space.Size(), 4*csvBatchRecords/space.Size() + 1} {
		var buf bytes.Buffer
		if err := syntheticMatrix(space, kernels).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(buf.String(), "\n")
		lines = lines[:len(lines)-1] // the empty string after the last newline
		records := len(lines) - 1
		mutate := func(i int, f func(fields []string) []string) string {
			fields := strings.Split(strings.TrimSuffix(lines[1+i], "\n"), ",")
			out := slices.Clone(lines)
			out[1+i] = strings.Join(f(fields), ",") + "\n"
			return strings.Join(out, "")
		}
		planted := map[string]func(i int) io.Reader{
			"bad float": func(i int) io.Reader {
				return strings.NewReader(mutate(i, func(f []string) []string { f[4] = "fast"; return f }))
			},
			"wrong field count": func(i int) io.Reader {
				return strings.NewReader(mutate(i, func(f []string) []string { return f[:7] }))
			},
			"bare quote": func(i int) io.Reader {
				return strings.NewReader(mutate(i, func(f []string) []string { f[0] = `s/p"/k`; return f }))
			},
			"failing reader": func(i int) io.Reader {
				return &failingReader{data: []byte(strings.Join(lines[:1+i], "")), err: errors.New("disk on fire")}
			},
		}
		for _, i := range []int{0, csvBatchRecords - 1, csvBatchRecords, 2*csvBatchRecords - 1, records - 1} {
			for what, input := range planted {
				_, want := refReadCSV(input(i), space)
				if want == nil {
					t.Fatalf("%s at record %d: the reference decoder accepts it", what, i)
				}
				before := runtime.NumGoroutine()
				_, err := ReadCSV(input(i), space)
				checkJoined(t, before, fmt.Sprintf("%s at record %d of %d", what, i, records))
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%s at record %d of %d: error %v, want %v", what, i, records, err, want)
				}
			}
		}
		before := runtime.NumGoroutine()
		got, err := ReadCSV(bytes.NewReader(buf.Bytes()), space)
		checkJoined(t, before, fmt.Sprintf("a clean file of %d records", records))
		want, werr := refReadCSV(bytes.NewReader(buf.Bytes()), space)
		if err != nil || werr != nil || !sameMatrix(got, want) {
			t.Errorf("a clean file of %d records: %v (reference: %v), or the matrices differ", records, err, werr)
		}
	}
}
