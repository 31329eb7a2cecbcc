package sweep

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gpuscale/internal/durable"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
)

// fuzzSpace is the fixed grid both fuzz targets decode against; seed
// corpus entries in testdata/fuzz/ are written for it.
func fuzzSpace(f *testing.F) hw.Space {
	f.Helper()
	s, err := hw.NewSpace([]int{4, 44}, []float64{200, 1000}, []float64{150, 1250})
	if err != nil {
		f.Fatal(err)
	}
	return s
}

// FuzzJournalScan hammers the journal walk, as recovery uses it, with
// arbitrary bytes: it must never panic, it must agree with the
// reference scan (refScan) on what it refuses, on the clean prefix and
// on every row it recovers, and anything it does recover must satisfy
// the journal's row invariants (full planes, positive finite
// measurements, all-OK statuses).
func FuzzJournalScan(f *testing.F) {
	space := fuzzSpace(f)
	for _, seed := range journalSeeds(f, space) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantGood, refused := refScan(data, space)
		w, err := walkJournal(imageFrames(data), space)
		if (err != nil) != refused {
			t.Fatalf("the walk refused %v (%v), the reference scan %v", err != nil, err, refused)
		}
		if err != nil {
			// Only a refusal may error — a file of an earlier format, or
			// a journal of another space.
			return
		}
		if w.good != wantGood {
			t.Fatalf("clean prefix %d, the reference scan's %d", w.good, wantGood)
		}
		if (w.reason == "") != (w.good > 0 && w.good == int64(len(data))) {
			t.Fatalf("clean prefix %d of %d bytes with reason %q", w.good, len(data), w.reason)
		}
		m, err := w.matrix()
		if err != nil {
			t.Fatal(err)
		}
		if (m == nil) != (want == nil) || m != nil && !sameMatrix(m, want) {
			t.Fatal("recovered rows differ from the reference scan's")
		}
		if m == nil {
			return
		}
		nCfg := space.Size()
		for r, k := range m.Kernels {
			if k == "" {
				t.Fatal("recovered row with empty kernel name")
			}
			if len(m.Throughput[r]) != nCfg || len(m.TimeNS[r]) != nCfg ||
				len(m.Bound[r]) != nCfg || len(m.Status[r]) != nCfg {
				t.Fatalf("row %d has ragged planes", r)
			}
			if !m.RowComplete(r) {
				t.Fatalf("recovered row %d not all StatusOK", r)
			}
			for c := 0; c < nCfg; c++ {
				if !(m.Throughput[r][c] > 0) || math.IsInf(m.Throughput[r][c], 0) {
					t.Fatalf("row %d cell %d throughput %g", r, c, m.Throughput[r][c])
				}
				if !(m.TimeNS[r][c] > 0) || math.IsInf(m.TimeNS[r][c], 0) {
					t.Fatalf("row %d cell %d time %g", r, c, m.TimeNS[r][c])
				}
			}
		}
	})
}

// refScan is the reference journal scan the walk is held to: a plain
// loop of durable.Parse and checkRowRecord over a journal image, with
// none of the walk's machinery. It returns the rows recovery keeps,
// each kernel's last record in the order the kernels first appear (nil
// when there are none), the clean prefix (0 when the magic or the space
// record is not whole), and whether the image is refused: a file of an
// earlier format, or a journal of a space other than space. A zero
// space takes the space record's own.
func refScan(data []byte, space hw.Space) (m *Matrix, good int64, refused bool) {
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		return nil, 0, earlierFormat(data) != ""
	}
	payload, off, why := durable.Parse(data, int64(len(journalMagic)))
	var sp hw.Space
	if why == "" {
		sp, why = parseSpaceRecord(payload)
	}
	if why == "" && space.Size() == 0 {
		space = sp
	}
	if why != "" || space.Size() == 0 {
		return nil, 0, false
	}
	if !sp.Equal(space) {
		return nil, 0, true
	}
	rows := map[string]int{}
	for off < int64(len(data)) {
		payload, next, why := durable.Parse(data, off)
		var name, packed []byte
		if why == "" {
			name, packed, why = checkRowRecord(payload, space.Size())
		}
		if why != "" {
			break
		}
		if m == nil {
			m = &Matrix{Space: space}
		}
		r, ok := rows[string(name)]
		if !ok {
			r = len(m.Kernels)
			rows[string(name)] = r
			m.Kernels = append(m.Kernels, string(name))
			m.Throughput, m.TimeNS = append(m.Throughput, nil), append(m.TimeNS, nil)
			m.Bound, m.Status = append(m.Bound, nil), append(m.Status, make([]CellStatus, space.Size()))
		}
		m.Throughput[r], m.TimeNS[r], m.Bound[r] = unpackPlanes(space.Size(), packed)
		off = next
	}
	return m, off, false
}

// FuzzUnpackPlanes hammers the two decoders of the row format with
// arbitrary bytes. As packed planes — what a fleet process receives
// from the wire — every input the hygiene checks accept must unpack
// and pack back bit-exactly, and its record must append to a journal
// that reads it back unchanged, so nothing the wire admits can
// truncate a journal at recovery. As a row record — what recovery
// reads — every input accepted must pass the hygiene checks and
// encode back to exactly its own bytes.
func FuzzUnpackPlanes(f *testing.F) {
	space, err := hw.NewSpace([]int{4, 44}, []float64{200}, []float64{150, 1250})
	if err != nil {
		f.Fatal(err)
	}
	n := space.Size()
	rec, err := EncodePlanes("fuzz",
		[]float64{1, 2.5, 1e-300, math.MaxFloat64},
		[]float64{math.SmallestNonzeroFloat64, 3, 1e21, 7e-7},
		[]gcn.Bound{gcn.BoundCompute, gcn.BoundDRAM, gcn.BoundLatency, gcn.BoundLaunch})
	if err != nil {
		f.Fatal(err)
	}
	valid := rec.Packed()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(slices.Clone(valid[:8*(n-1)]), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf7, 0x7f)) // NaN
	f.Add(rec.payload)
	f.Add(append([]byte{0x84, 0x00}, rec.payload[1:]...)) // the name's length padded
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, b []byte) {
		if checkPlanes(n, b) == nil {
			tput, timeNS, bound := unpackPlanes(n, b)
			rec, err := EncodePlanes("fuzz", tput, timeNS, bound)
			if err != nil {
				t.Fatalf("accepted planes do not encode: %v", err)
			}
			if !bytes.Equal(rec.Packed(), b) {
				t.Fatal("accepted planes do not round-trip bit-exactly")
			}
			path := filepath.Join(t.TempDir(), "fuzz.journal")
			j, err := OpenJournal(path, space)
			if err != nil {
				t.Fatal(err)
			}
			_, err = j.AppendRecord(rec)
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			m, err := ReadJournal(path, space)
			if err != nil || m == nil || len(m.Kernels) != 1 {
				t.Fatalf("the journal refused a record of accepted planes: %v", err)
			}
			if !sameMatrix(m, &Matrix{Kernels: []string{"fuzz"}, Throughput: [][]float64{tput},
				TimeNS: [][]float64{timeNS}, Bound: [][]gcn.Bound{bound}, Status: m.Status}) {
				t.Fatal("accepted planes changed on their way through the journal")
			}
		}
		if name, packed, why := checkRowRecord(b, n); why == "" {
			tput, timeNS, bound := unpackPlanes(n, packed)
			for c := 0; c < n; c++ {
				if !(tput[c] > 0) || math.IsInf(tput[c], 0) || !(timeNS[c] > 0) ||
					math.IsInf(timeNS[c], 0) || bound[c] < gcn.BoundCompute || bound[c] > gcn.BoundLaunch {
					t.Fatalf("accepted record fails hygiene at config %d", c)
				}
			}
			rec, err := EncodePlanes(string(name), tput, timeNS, bound)
			if err != nil || !bytes.Equal(rec.payload, b) {
				t.Fatalf("accepted record does not encode back to its own bytes (%v)", err)
			}
		}
	})
}

// FuzzReadCSV hammers ReadCSV: no panics; it agrees with the decode
// loop it replaced on which inputs are errors, with the same message,
// and on the matrix of every other; any matrix it accepts has sane
// statuses and measurements and reads back unchanged from its own
// WriteCSV bytes.
func FuzzReadCSV(f *testing.F) {
	space := fuzzSpace(f)
	const hdr = "kernel,cus,core_mhz,mem_mhz,throughput,time_ns,bound,status\n"
	f.Add(hdr)
	f.Add(hdr + "k,4,200,150,1.5,100,compute,ok\n")
	f.Add(hdr + "k,4,200,150,NaN,100,compute,ok\n")
	f.Add(hdr + "k,4,200,150,1.5,100,teapot,ok\n")
	f.Add("kernel,cus,core_mhz,mem_mhz,throughput,time_ns,bound\nk,4,200,150,1,1,compute\n")
	f.Add("not,a,sweep\n1,2,3\n")
	f.Add(hdr + "\"a\r\r\nb\",4,200,150,1.5,100,compute,ok\n") // reads back as "a\r\nb", then "a\nb"
	f.Fuzz(func(t *testing.T, data string) {
		m, err := ReadCSV(strings.NewReader(data), space)
		want, werr := refReadCSV(strings.NewReader(data), space)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("error %v, the reference decoder %v", err, werr)
		}
		if err != nil {
			return
		}
		if !sameMatrix(m, want) {
			t.Fatal("matrix differs from the reference decoder's")
		}
		nCfg := space.Size()
		for r, k := range m.Kernels {
			if k == "" {
				t.Fatal("accepted row with empty kernel name")
			}
			for c := 0; c < nCfg; c++ {
				s := m.Status[r][c]
				if s < StatusOK || s > StatusQuarantined {
					t.Fatalf("row %d cell %d has out-of-range status %d", r, c, s)
				}
				if s != StatusOK {
					continue
				}
				if !(m.Throughput[r][c] > 0) || math.IsInf(m.Throughput[r][c], 0) ||
					math.IsNaN(m.Throughput[r][c]) {
					t.Fatalf("OK cell (%d,%d) has throughput %g", r, c, m.Throughput[r][c])
				}
			}
		}
		// encoding/csv reads a "\r\n" inside a quoted field back as
		// "\n", so only names without one can round-trip.
		if !slices.ContainsFunc(m.Kernels, func(k string) bool { return strings.Contains(k, "\r\n") }) {
			var buf bytes.Buffer
			if err := m.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadCSV(&buf, space)
			if err != nil {
				t.Fatalf("WriteCSV of an accepted matrix does not read back: %v", err)
			}
			if !sameMatrix(back, m) {
				t.Fatal("WriteCSV of an accepted matrix reads back different")
			}
		}
	})
}

// sameMatrix reports whether two matrices hold the same kernels and
// bit-identical planes.
func sameMatrix(a, b *Matrix) bool {
	if !slices.Equal(a.Kernels, b.Kernels) || !reflect.DeepEqual(a.Bound, b.Bound) ||
		!reflect.DeepEqual(a.Status, b.Status) {
		return false
	}
	bits := func(p [][]float64) [][]uint64 {
		out := make([][]uint64, len(p))
		for r, row := range p {
			for _, v := range row {
				out[r] = append(out[r], math.Float64bits(v))
			}
		}
		return out
	}
	return reflect.DeepEqual(bits(a.Throughput), bits(b.Throughput)) &&
		reflect.DeepEqual(bits(a.TimeNS), bits(b.TimeNS))
}

// refReadCSV is the decode loop ReadCSV replaced, kept as its oracle: a
// fresh record per line, and every field of every record parsed and
// looked up.
func refReadCSV(r io.Reader, space hw.Space) (*Matrix, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sweep: reading header: %w", err)
	}
	if len(header) == 7 && header[0] == "kernel" {
		return nil, fmt.Errorf("sweep: a 7-column sweep CSV, written before the status column; this build does not read it")
	}
	if len(header) != 8 || header[0] != "kernel" {
		return nil, fmt.Errorf("sweep: unexpected header %v", header)
	}
	m := &Matrix{Space: space}
	rows := map[string]int{}
	nCfg := space.Size()
	bounds := map[string]gcn.Bound{}
	for b := gcn.BoundCompute; b <= gcn.BoundLaunch; b++ {
		bounds[b.String()] = b
	}
	var filled [][]bool
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("sweep: line %d: %w", line, err)
		}
		cell, err := refDecodeCSVRecord(rec, line, space, bounds)
		if err != nil {
			return nil, err
		}
		ri, ok := rows[cell.kernel]
		if !ok {
			ri = len(m.Kernels)
			rows[cell.kernel] = ri
			m.Kernels = append(m.Kernels, cell.kernel)
			m.Throughput = append(m.Throughput, make([]float64, nCfg))
			m.TimeNS = append(m.TimeNS, make([]float64, nCfg))
			m.Bound = append(m.Bound, make([]gcn.Bound, nCfg))
			m.Status = append(m.Status, make([]CellStatus, nCfg))
			filled = append(filled, make([]bool, nCfg))
		}
		m.Throughput[ri][cell.ci] = cell.tput
		m.TimeNS[ri][cell.ci] = cell.tns
		m.Bound[ri][cell.ci] = cell.bound
		m.Status[ri][cell.ci] = cell.status
		filled[ri][cell.ci] = true
	}
	for i, cells := range filled {
		n := 0
		for _, f := range cells {
			if f {
				n++
			}
		}
		if n != nCfg {
			return nil, fmt.Errorf("sweep: kernel %s has %d/%d cells", m.Kernels[i], n, nCfg)
		}
	}
	if len(m.Kernels) == 0 {
		return nil, fmt.Errorf("sweep: empty CSV")
	}
	return m, nil
}

func refDecodeCSVRecord(rec []string, line int, space hw.Space, bounds map[string]gcn.Bound) (csvCell, error) {
	var cell csvCell
	if len(rec) != len(csvHeader) {
		return cell, fmt.Errorf("sweep: line %d: %d fields, want %d", line, len(rec), len(csvHeader))
	}
	if rec[0] == "" {
		return cell, fmt.Errorf("sweep: line %d: empty kernel name", line)
	}
	cell.kernel = rec[0]
	cus, err := strconv.Atoi(rec[1])
	if err != nil {
		return cell, fmt.Errorf("sweep: line %d: bad cu count %q: %w", line, rec[1], err)
	}
	core, err := strconv.ParseFloat(rec[2], 64)
	if err != nil {
		return cell, fmt.Errorf("sweep: line %d: bad core clock %q: %w", line, rec[2], err)
	}
	mem, err := strconv.ParseFloat(rec[3], 64)
	if err != nil {
		return cell, fmt.Errorf("sweep: line %d: bad mem clock %q: %w", line, rec[3], err)
	}
	cell.ci = space.Index(hw.Config{CUs: cus, CoreClockMHz: core, MemClockMHz: mem})
	if cell.ci < 0 {
		return cell, fmt.Errorf("sweep: line %d: config %s/%s/%s not in space", line, rec[1], rec[2], rec[3])
	}
	cell.tput, err = strconv.ParseFloat(rec[4], 64)
	if err != nil {
		return cell, fmt.Errorf("sweep: line %d: bad throughput %q: %w", line, rec[4], err)
	}
	cell.tns, err = strconv.ParseFloat(rec[5], 64)
	if err != nil {
		return cell, fmt.Errorf("sweep: line %d: bad time %q: %w", line, rec[5], err)
	}
	if math.IsNaN(cell.tput) || math.IsInf(cell.tput, 0) || cell.tput < 0 {
		return cell, fmt.Errorf("sweep: line %d: throughput %g out of range", line, cell.tput)
	}
	if math.IsNaN(cell.tns) || math.IsInf(cell.tns, 0) || cell.tns < 0 {
		return cell, fmt.Errorf("sweep: line %d: time %g ns out of range", line, cell.tns)
	}
	b, ok := bounds[rec[6]]
	if !ok {
		return cell, fmt.Errorf("sweep: line %d: unknown bound %q", line, rec[6])
	}
	cell.bound = b
	if cell.status, err = ParseStatus(rec[7]); err != nil {
		return cell, fmt.Errorf("sweep: line %d: %w", line, err)
	}
	if cell.status == StatusOK && (cell.tput <= 0 || cell.tns <= 0) {
		return cell, fmt.Errorf("sweep: line %d: ok cell with non-positive measurement %g/%g", line, cell.tput, cell.tns)
	}
	return cell, nil
}
