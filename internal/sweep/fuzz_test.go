package sweep

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

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

// FuzzJournalScan hammers the v2 journal recovery scanner with
// arbitrary bytes: it must never panic, never claim a clean prefix
// longer than the input, and anything it does recover must satisfy the
// journal's row invariants (full planes, positive finite measurements,
// all-OK statuses).
func FuzzJournalScan(f *testing.F) {
	space := fuzzSpace(f)
	full := func() []byte {
		m, err := Run(testKernels(), space, Options{})
		if err != nil {
			f.Fatal(err)
		}
		var b []byte
		b = append(b, journalMagic...)
		sp, err := frameRecord(journalRecord{Space: &space})
		if err != nil {
			f.Fatal(err)
		}
		b = append(b, sp...)
		for r := range m.Kernels {
			row, err := rowRecord(m, r)
			if err != nil {
				f.Fatal(err)
			}
			b = append(b, row...)
		}
		return b
	}()
	f.Add(full)
	f.Add(full[:len(full)-7])        // torn tail
	f.Add([]byte(journalMagic))      // header only
	f.Add([]byte(journalMagic[:9]))  // torn magic
	f.Add([]byte("deadbeef 3 {}\n")) // frame without magic
	f.Add([]byte(nil))               // empty
	f.Fuzz(func(t *testing.T, data []byte) {
		m, good, _, err := scanJournal(data, space)
		if err != nil {
			// Only the wrong-space refusal may error; it must salvage
			// nothing.
			if m != nil {
				t.Fatal("scan errored but returned a matrix")
			}
			return
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("clean prefix %d outside [0,%d]", good, len(data))
		}
		if m == nil {
			return
		}
		nCfg := space.Size()
		seen := map[string]bool{}
		for r, k := range m.Kernels {
			if k == "" {
				t.Fatal("recovered row with empty kernel name")
			}
			if seen[k] {
				t.Fatalf("kernel %q recovered twice", k)
			}
			seen[k] = true
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

// FuzzReadCSV hammers both CSV loaders: no panics; both agree with
// the decode loop they replaced on which inputs are errors, with the
// same message, and on the matrix of every other; any matrix the
// lenient loader accepts has sane statuses and measurements and reads
// back unchanged from its own WriteCSV bytes.
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
		for _, strict := range []bool{false, true} {
			got, err := readCSV(strings.NewReader(data), space, strict)
			want, werr := refReadCSV(strings.NewReader(data), space, strict)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("strict=%v: error %v, the reference decoder %v", strict, err, werr)
			}
			if err == nil && !sameMatrix(got, want) {
				t.Fatalf("strict=%v: matrix differs from the reference decoder's", strict)
			}
		}
		m, err := ReadCSVPartial(strings.NewReader(data), space)
		if err == nil {
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
				back, err := ReadCSVPartial(&buf, space)
				if err != nil {
					t.Fatalf("WriteCSV of an accepted matrix does not read back: %v", err)
				}
				if !sameMatrix(back, m) {
					t.Fatal("WriteCSV of an accepted matrix reads back different")
				}
			}
		}
		// The strict loader must agree with the lenient one about what
		// parses at all, and only ever accepts complete grids.
		if sm, serr := ReadCSV(strings.NewReader(data), space); serr == nil {
			if err != nil {
				t.Fatal("strict loader accepted what the lenient loader rejected")
			}
			for r := range sm.Kernels {
				for c := 0; c < space.Size(); c++ {
					if sm.Status[r][c] == StatusFailed && sm.Throughput[r][c] != 0 {
						t.Fatalf("failed cell (%d,%d) carries a measurement", r, c)
					}
				}
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

// refReadCSV is the decode loop ReadCSV and ReadCSVPartial replaced,
// kept as their oracle: a fresh record per line, and every field of
// every record parsed and looked up.
func refReadCSV(r io.Reader, space hw.Space, strict bool) (*Matrix, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sweep: reading header: %w", err)
	}
	legacy := len(header) == 7
	if (len(header) != 8 && !legacy) || header[0] != "kernel" {
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
		cell, err := refDecodeCSVRecord(rec, line, space, bounds, legacy)
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
			m.Status = append(m.Status, failedRow(nCfg))
			filled = append(filled, make([]bool, nCfg))
		}
		m.Throughput[ri][cell.ci] = cell.tput
		m.TimeNS[ri][cell.ci] = cell.tns
		m.Bound[ri][cell.ci] = cell.bound
		m.Status[ri][cell.ci] = cell.status
		filled[ri][cell.ci] = true
	}
	if strict {
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
	}
	if strict && len(m.Kernels) == 0 {
		return nil, fmt.Errorf("sweep: empty CSV")
	}
	return m, nil
}

func refDecodeCSVRecord(rec []string, line int, space hw.Space, bounds map[string]gcn.Bound, legacy bool) (csvCell, error) {
	var cell csvCell
	want := len(csvHeader)
	if legacy {
		want--
	}
	if len(rec) != want {
		return cell, fmt.Errorf("sweep: line %d: %d fields, want %d", line, len(rec), want)
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
	cell.status = StatusOK
	if !legacy {
		if cell.status, err = ParseStatus(rec[7]); err != nil {
			return cell, fmt.Errorf("sweep: line %d: %w", line, err)
		}
	}
	if cell.status == StatusOK && (cell.tput <= 0 || cell.tns <= 0) {
		return cell, fmt.Errorf("sweep: line %d: ok cell with non-positive measurement %g/%g", line, cell.tput, cell.tns)
	}
	return cell, nil
}
