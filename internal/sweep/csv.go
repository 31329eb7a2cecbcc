package sweep

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"gpuscale/internal/durable"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
)

// csvHeader is the long-form measurement schema: one row per
// (kernel, configuration) cell, mirroring the raw data file a hardware
// study would archive. The trailing status column records per-cell
// fate; files written before it existed (7 columns) read back with
// every cell StatusOK.
var csvHeader = []string{"kernel", "cus", "core_mhz", "mem_mhz", "throughput", "time_ns", "bound", "status"}

// WriteCSV persists a matrix as long-form CSV, one row per
// (kernel, configuration) measurement including its status. The bytes
// are exactly those encoding/csv's Writer produces for these records.
// Of the eight fields only the kernel name can need quoting — the rest
// are numbers and fixed lower-case names — so encoding/csv renders the
// name once per kernel, each configuration's text is rendered once per
// call, and a cell formats just its two measurements. A kernel's lines
// go out in one Write.
func (m *Matrix) WriteCSV(w io.Writer) error {
	out, err := newCSVRows(w, m.Space)
	if err != nil {
		return err
	}
	for r, name := range m.Kernels {
		var status []CellStatus
		if m.Status != nil {
			status = m.Status[r]
		}
		if err := out.row(name, m.Throughput[r], m.TimeNS[r], m.Bound[r], status); err != nil {
			return err
		}
	}
	return nil
}

// csvRows writes a matrix's rows as WriteCSV does, one kernel's lines
// per Write, reusing its buffers from row to row.
type csvRows struct {
	w       io.Writer
	rec     bytes.Buffer
	cw      *csv.Writer
	cfgText []string
	lines   []byte
}

// newCSVRows writes the CSV header to w and returns the writer of the
// rows of a matrix over space.
func newCSVRows(w io.Writer, space hw.Space) (*csvRows, error) {
	out := &csvRows{w: w, cfgText: configSpellings(space)}
	out.cw = csv.NewWriter(&out.rec)
	if _, err := w.Write(out.record(csvHeader...)); err != nil {
		return nil, fmt.Errorf("sweep: writing header: %w", err)
	}
	return out, nil
}

// record renders fields as encoding/csv does, newline included; the
// result is valid until the next call.
func (out *csvRows) record(fields ...string) []byte {
	out.rec.Reset()
	out.cw.Write(fields) // writes to a bytes.Buffer cannot fail
	out.cw.Flush()
	return out.rec.Bytes()
}

// row writes one kernel's lines, one per configuration. A nil status
// means every cell is StatusOK.
func (out *csvRows) row(name string, tput, timeNS []float64, bound []gcn.Bound, status []CellStatus) error {
	kernel := out.record(name)
	kernel[len(kernel)-1] = ',' // the record's newline becomes the separator
	lines := out.lines[:0]
	for c, text := range out.cfgText {
		lines = append(lines, kernel...)
		lines = append(lines, text...)
		lines = append(lines, ',')
		lines = strconv.AppendFloat(lines, tput[c], 'g', -1, 64)
		lines = append(lines, ',')
		lines = strconv.AppendFloat(lines, timeNS[c], 'g', -1, 64)
		lines = append(lines, ',')
		lines = append(lines, bound[c].String()...)
		lines = append(lines, ',')
		st := StatusOK
		if status != nil {
			st = status[c]
		}
		lines = append(lines, st.String()...)
		lines = append(lines, '\n')
	}
	out.lines = lines
	if _, err := out.w.Write(lines); err != nil {
		return fmt.Errorf("sweep: writing row: %w", err)
	}
	return nil
}

// configSpellings returns the cus,core_mhz,mem_mhz fields of each of
// space's configurations as WriteCSV writes them.
func configSpellings(space hw.Space) []string {
	configs := space.Configs()
	out := make([]string, len(configs))
	for c, cfg := range configs {
		out[c] = strconv.Itoa(cfg.CUs) + "," + strconv.FormatFloat(cfg.CoreClockMHz, 'g', -1, 64) + "," +
			strconv.FormatFloat(cfg.MemClockMHz, 'g', -1, 64)
	}
	return out
}

// WriteCSVFile archives the matrix at path atomically, streaming the
// CSV into the replacement file, so a crash mid-write can never leave
// a torn archive — readers see either the old file or the complete
// new one.
func (m *Matrix) WriteCSVFile(path string) error {
	if err := durable.WriteFile(path, m.WriteCSV); err != nil {
		return fmt.Errorf("sweep: archiving %s: %w", path, err)
	}
	return nil
}

// ReadCSV loads a matrix written by WriteCSV. The configuration space
// must be supplied (the CSV stores points, not the grid definition)
// and every (kernel, configuration) cell must be present; use
// ReadCSVPartial for journals and interrupted runs.
func ReadCSV(r io.Reader, space hw.Space) (*Matrix, error) {
	return readCSV(r, space, true)
}

// ReadCSVPartial loads a possibly incomplete matrix: kernels may be
// missing cells (e.g. a journal cut short by a crash). Absent cells
// are marked StatusFailed so downstream consumers mask them and a
// Resume recomputes them.
func ReadCSVPartial(r io.Reader, space hw.Space) (*Matrix, error) {
	return readCSV(r, space, false)
}

// csvCell is one decoded CSV record: a cell's position and payload.
type csvCell struct {
	kernel string
	ci     int
	tput   float64
	tns    float64
	bound  gcn.Bound
	status CellStatus
}

// csvDecoder parses and validates the data records of one CSV file
// against a grid. WriteCSV lists each kernel's cells in grid order, so
// the decoder first compares a record's configuration fields with the
// configuration after the previous record's, as WriteCSV spells it.
// Any other spelling or order ("1e3", "044", cells shuffled) is parsed
// and looked up in the grid, which gives the same configuration
// whenever the comparison would have matched.
type csvDecoder struct {
	space  hw.Space
	legacy bool // 7-column archives written before the status column
	// canon[c] is configuration c as WriteCSV spells it, or "" where
	// that spelling does not look up to c (a NaN or repeated axis
	// value), so that its records always take the parse.
	canon []string
	// next is the configuration a well-ordered file holds next.
	next int
}

func newCSVDecoder(space hw.Space, legacy bool) *csvDecoder {
	canon := configSpellings(space)
	for c, cfg := range space.Configs() {
		if space.Index(cfg) != c {
			canon[c] = ""
		}
	}
	return &csvDecoder{space: space, legacy: legacy, canon: canon}
}

// parseBound inverts gcn.Bound.String over the named bounds.
func parseBound(s string) (gcn.Bound, bool) {
	for b := gcn.BoundCompute; b <= gcn.BoundLaunch; b++ {
		if b.String() == s {
			return b, true
		}
	}
	return 0, false
}

// decode parses and validates one data record. line is the 1-based
// file line for positional errors. Malformed numbers, off-grid
// configurations, NaN/negative/infinite measurements and unknown bound
// or status names are all rejected here so garbage never propagates
// into core.
func (d *csvDecoder) decode(rec []string, line int) (csvCell, error) {
	var cell csvCell
	want := len(csvHeader)
	if d.legacy {
		want--
	}
	if len(rec) != want {
		return cell, fmt.Errorf("sweep: line %d: %d fields, want %d", line, len(rec), want)
	}
	if rec[0] == "" {
		return cell, fmt.Errorf("sweep: line %d: empty kernel name", line)
	}
	cell.kernel = rec[0]
	// A spelling holds no commas but its two separators, so this
	// matches exactly when each of the three fields does.
	if d.next < len(d.canon) && rec[1]+","+rec[2]+","+rec[3] == d.canon[d.next] {
		cell.ci = d.next
	} else {
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
		cell.ci = d.space.Index(hw.Config{CUs: cus, CoreClockMHz: core, MemClockMHz: mem})
		if cell.ci < 0 {
			return cell, fmt.Errorf("sweep: line %d: config %s/%s/%s not in space", line, rec[1], rec[2], rec[3])
		}
	}
	if d.next = cell.ci + 1; d.next == len(d.canon) {
		d.next = 0
	}
	var err error
	cell.tput, err = strconv.ParseFloat(rec[4], 64)
	if err != nil {
		return cell, fmt.Errorf("sweep: line %d: bad throughput %q: %w", line, rec[4], err)
	}
	cell.tns, err = strconv.ParseFloat(rec[5], 64)
	if err != nil {
		return cell, fmt.Errorf("sweep: line %d: bad time %q: %w", line, rec[5], err)
	}
	// No hardware run produces NaN, infinite or negative measurements;
	// a file that claims one is corrupt, not data (failed cells hold
	// exactly 0).
	if math.IsNaN(cell.tput) || math.IsInf(cell.tput, 0) || cell.tput < 0 {
		return cell, fmt.Errorf("sweep: line %d: throughput %g out of range", line, cell.tput)
	}
	if math.IsNaN(cell.tns) || math.IsInf(cell.tns, 0) || cell.tns < 0 {
		return cell, fmt.Errorf("sweep: line %d: time %g ns out of range", line, cell.tns)
	}
	b, ok := parseBound(rec[6])
	if !ok {
		return cell, fmt.Errorf("sweep: line %d: unknown bound %q", line, rec[6])
	}
	cell.bound = b
	cell.status = StatusOK
	if !d.legacy {
		if cell.status, err = ParseStatus(rec[7]); err != nil {
			return cell, fmt.Errorf("sweep: line %d: %w", line, err)
		}
	}
	// A cell that claims a validated measurement must carry one.
	if cell.status == StatusOK && (cell.tput <= 0 || cell.tns <= 0) {
		return cell, fmt.Errorf("sweep: line %d: ok cell with non-positive measurement %g/%g", line, cell.tput, cell.tns)
	}
	return cell, nil
}

func readCSV(r io.Reader, space hw.Space, strict bool) (*Matrix, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // field-count errors carry line numbers via decode
	// Only the record slice is reused: each record's fields are fresh
	// strings, so a kernel name may be kept.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sweep: reading header: %w", err)
	}
	legacy := len(header) == 7
	if (len(header) != 8 && !legacy) || header[0] != "kernel" {
		return nil, fmt.Errorf("sweep: unexpected header %v", header)
	}
	d := newCSVDecoder(space, legacy)
	m := &Matrix{Space: space}
	rows := map[string]int{}
	nCfg := space.Size()
	var filled [][]bool
	ri := -1
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
		cell, err := d.decode(rec, line)
		if err != nil {
			return nil, err
		}
		// A kernel's cells arrive together: only a change of name needs
		// the lookup.
		if ri < 0 || cell.kernel != m.Kernels[ri] {
			var ok bool
			if ri, ok = rows[cell.kernel]; !ok {
				ri = len(m.Kernels)
				rows[cell.kernel] = ri
				m.Kernels = append(m.Kernels, cell.kernel)
				m.Throughput = append(m.Throughput, make([]float64, nCfg))
				m.TimeNS = append(m.TimeNS, make([]float64, nCfg))
				m.Bound = append(m.Bound, make([]gcn.Bound, nCfg))
				m.Status = append(m.Status, failedRow(nCfg))
				filled = append(filled, make([]bool, nCfg))
			}
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

// failedRow returns a row of StatusFailed cells — the starting state
// of a partially read kernel, flipped to the recorded status as cells
// arrive.
func failedRow(n int) []CellStatus {
	row := make([]CellStatus, n)
	for i := range row {
		row[i] = StatusFailed
	}
	return row
}
