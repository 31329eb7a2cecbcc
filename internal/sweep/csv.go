package sweep

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"

	"gpuscale/internal/durable"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
)

// csvHeader is the long-form measurement schema: one row per
// (kernel, configuration) cell, mirroring the raw data file a hardware
// study would archive. The trailing status column records per-cell
// fate; ReadCSV refuses a file from before it existed (7 columns) by
// name.
var csvHeader = []string{"kernel", "cus", "core_mhz", "mem_mhz", "throughput", "time_ns", "bound", "status"}

// WriteCSV persists a matrix as long-form CSV, one row per
// (kernel, configuration) measurement including its status. The bytes
// are exactly those encoding/csv's Writer produces for these records.
// Of the eight fields only the kernel name can need quoting — the rest
// are numbers and fixed lower-case names — so encoding/csv renders each
// name once, each configuration's text is rendered once per call, and
// a cell formats just its two measurements. Rows render on up to
// runtime.GOMAXPROCS(0) goroutines, joined before WriteCSV returns;
// only the calling goroutine writes to w, a kernel's lines in one
// Write, in row order. A row whose planes do not hold one entry per
// configuration stops the write with an error, the rows before it
// written.
func (m *Matrix) WriteCSV(w io.Writer) error {
	return writeRows(w, m.Space, m.Kernels, func() rowFunc {
		return func(r int) (Row, error) {
			row := Row{Throughput: m.Throughput[r], TimeNS: m.TimeNS[r], Bound: m.Bound[r]}
			if m.Status != nil {
				row.Status = m.Status[r]
			}
			return row, nil
		}
	})
}

// rowFunc returns row r of a matrix being written; a nil Status means
// every cell is StatusOK. Each renderer calls its own, one row at a
// time, and is done with a row before it asks for the next, so a
// rowFunc may reuse its planes from row to row.
type rowFunc func(r int) (Row, error)

// rendered is one row's lines, or why they could not be rendered.
type rendered struct {
	lines []byte
	err   error
}

// writeRows writes the CSV of a matrix over space whose rows are
// kernels: the header, then each row's lines in one Write, in row
// order. The rows render on n goroutines, renderer i taking rows i,
// i+n, i+2n, ... with a rowFunc of its own from newRowFunc and one
// buffer presized for a row, so a render holds one row per renderer:
// n is runtime.GOMAXPROCS(0), or fewer where that many rows would
// outgrow renderBudget. Only the calling goroutine writes to w. At the
// first error, a row's or a write's, it returns that error, having
// written every row before it and none after; a row whose planes do
// not hold one entry per configuration is an error. It joins every
// renderer before it returns.
func writeRows(w io.Writer, space hw.Space, kernels []string, newRowFunc func() rowFunc) error {
	text := newCSVText(space, kernels)
	if _, err := w.Write(text.header); err != nil {
		return fmt.Errorf("sweep: writing header: %w", err)
	}
	nCfg := space.Size()
	n := min(runtime.GOMAXPROCS(0), len(kernels), max(1, renderBudget/max(1, text.rowBound)))
	// A renderer sends a row only while it holds its buffer, and gets
	// the buffer back only once the row is written, so no send blocks.
	out := make([]chan rendered, n) // a renderer's last row
	free := make([]chan []byte, n)  // its buffer, back once written
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := range n {
		out[i], free[i] = make(chan rendered, 1), make(chan []byte, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			row := newRowFunc()
			lines := make([]byte, 0, text.rowBound)
			for r := i; r < len(kernels); r += n {
				planes, err := row(r)
				if err == nil && (len(planes.Throughput) != nCfg || len(planes.TimeNS) != nCfg ||
					len(planes.Bound) != nCfg || (planes.Status != nil && len(planes.Status) != nCfg)) {
					err = fmt.Errorf("sweep: writing row %d (%s): its planes do not hold %d cells", r, kernels[r], nCfg)
				}
				if err != nil {
					out[i] <- rendered{err: err}
					return
				}
				out[i] <- rendered{lines: text.appendRow(lines[:0], r, planes)}
				select {
				case lines = <-free[i]:
				case <-stop:
					return
				}
			}
		}()
	}
	for r := range kernels {
		got := <-out[r%n]
		if got.err != nil {
			return got.err
		}
		if _, err := w.Write(got.lines); err != nil {
			return fmt.Errorf("sweep: writing row: %w", err)
		}
		free[r%n] <- got.lines
	}
	return nil
}

// renderBudget bounds the row text a render holds: it runs no more
// renderers than rows of its matrix's size fit in this many bytes, so
// a render's memory does not grow with the host's core count. A
// renderer also holds its row's planes, and for a journal a frame, a
// third as much again. A seed-1 study row renders to at most 102.5 KB,
// so that render runs up to three renderers and allocates 0.66 MB.
const renderBudget = 384 << 10

// csvText is the text every row of one render shares, rendered once:
// the header and each kernel's field as encoding/csv renders them, and
// each configuration's cus,core_mhz,mem_mhz fields, each followed by
// its separator.
type csvText struct {
	header    []byte
	kernels   []byte // row r's field is kernels[kernelEnd[r-1]:kernelEnd[r]]
	kernelEnd []int
	configs   []byte // configuration c's is configs[configEnd[c-1]:configEnd[c]]
	configEnd []int
	// rowBound is the most bytes a row whose bounds and statuses are
	// named ones renders to: its cell count bounds it.
	rowBound int
}

// maxFloatText is the longest text strconv's shortest 'g' formatting
// gives a float64, as in -2.2250738585072014e-308.
const maxFloatText = 24

func newCSVText(space hw.Space, kernels []string) *csvText {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.Write(csvHeader) // writes to a bytes.Buffer cannot fail
	cw.Flush()
	t := &csvText{header: bytes.Clone(buf.Bytes()), kernelEnd: make([]int, len(kernels))}
	buf.Reset()
	longest := 0
	for r, name := range kernels {
		start := buf.Len()
		cw.Write([]string{name})
		cw.Flush()
		buf.Bytes()[buf.Len()-1] = ',' // the record's newline becomes the separator
		t.kernelEnd[r] = buf.Len()
		longest = max(longest, buf.Len()-start)
	}
	t.kernels = buf.Bytes()
	fields := configFields(space)
	t.configEnd = make([]int, len(fields))
	for c, f := range fields {
		t.configs = append(append(append(append(append(append(t.configs, f[0]...), ','), f[1]...), ','), f[2]...), ',')
		t.configEnd[c] = len(t.configs)
	}
	// A cell: its kernel and configuration fields, two numbers, a bound
	// and a status, the three separators between them and a newline.
	bound, status := 0, 0 // the longest names
	for b := gcn.BoundCompute; b <= gcn.BoundLaunch; b++ {
		bound = max(bound, len(b.String()))
	}
	for _, name := range statusNames {
		status = max(status, len(name))
	}
	t.rowBound = len(fields)*(longest+2*maxFloatText+bound+status+4) + len(t.configs)
	return t
}

// appendRow appends row r's lines, one per configuration, to lines.
func (t *csvText) appendRow(lines []byte, r int, row Row) []byte {
	begin := 0
	if r > 0 {
		begin = t.kernelEnd[r-1]
	}
	kernel := t.kernels[begin:t.kernelEnd[r]]
	prev := 0
	for c, end := range t.configEnd {
		lines = append(lines, kernel...)
		lines = append(lines, t.configs[prev:end]...)
		prev = end
		lines = strconv.AppendFloat(lines, row.Throughput[c], 'g', -1, 64)
		lines = append(lines, ',')
		lines = strconv.AppendFloat(lines, row.TimeNS[c], 'g', -1, 64)
		lines = append(lines, ',')
		lines = append(lines, row.Bound[c].String()...)
		lines = append(lines, ',')
		st := StatusOK
		if row.Status != nil {
			st = row.Status[c]
		}
		lines = append(lines, st.String()...)
		lines = append(lines, '\n')
	}
	return lines
}

// configFields returns the cus, core_mhz and mem_mhz fields of each of
// space's configurations, in grid order, as WriteCSV writes them.
func configFields(space hw.Space) [][3]string {
	spell := func(axis []float64) []string {
		out := make([]string, len(axis))
		for i, v := range axis {
			out[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		return out
	}
	core, mem := spell(space.CoreClocksMHz), spell(space.MemClocksMHz)
	out := make([][3]string, 0, space.Size())
	for _, cus := range space.CUCounts {
		cu := strconv.Itoa(cus)
		for _, fc := range core {
			for _, fm := range mem {
				out = append(out, [3]string{cu, fc, fm})
			}
		}
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
// the decoder first compares a record's configuration fields with
// those of the configuration after the previous record's, as WriteCSV
// spells them. Any other spelling or order ("1e3", "044", cells
// shuffled) is parsed and looked up in the grid, which gives the same
// configuration whenever the comparison would have matched.
type csvDecoder struct {
	space hw.Space
	// canon[c] is configuration c's three fields as WriteCSV spells
	// them, or empty where that spelling does not look up to c (a NaN
	// or repeated axis value), so that its records always take the
	// parse.
	canon [][3]string
	// next is the configuration a well-ordered file holds next.
	next int
}

func newCSVDecoder(space hw.Space) *csvDecoder {
	canon := configFields(space)
	for c, cfg := range space.Configs() {
		if space.Index(cfg) != c {
			canon[c] = [3]string{}
		}
	}
	return &csvDecoder{space: space, canon: canon}
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
	if len(rec) != len(csvHeader) {
		return cell, fmt.Errorf("sweep: line %d: %d fields, want %d", line, len(rec), len(csvHeader))
	}
	if rec[0] == "" {
		return cell, fmt.Errorf("sweep: line %d: empty kernel name", line)
	}
	cell.kernel = rec[0]
	// An empty spelling marks a configuration that always takes the
	// parse.
	if d.next < len(d.canon) && d.canon[d.next][0] != "" && rec[1] == d.canon[d.next][0] &&
		rec[2] == d.canon[d.next][1] && rec[3] == d.canon[d.next][2] {
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
	if cell.status, err = ParseStatus(rec[7]); err != nil {
		return cell, fmt.Errorf("sweep: line %d: %w", line, err)
	}
	// A cell that claims a validated measurement must carry one.
	if cell.status == StatusOK && (cell.tput <= 0 || cell.tns <= 0) {
		return cell, fmt.Errorf("sweep: line %d: ok cell with non-positive measurement %g/%g", line, cell.tput, cell.tns)
	}
	return cell, nil
}

// csvBatchRecords is how many records ReadCSV's reading stage hands
// its decoding stage at a time.
const csvBatchRecords = 512

// csvBatch is a run of consecutive records as encoding/csv read them.
type csvBatch struct {
	fields []string // the records' fields, one record after another
	ends   []int    // record i's fields end at fields[ends[i]]
	// err is what ended the file's records after the batch's last one:
	// io.EOF or a read error; nil if more records follow.
	err error
}

// ReadCSV loads a matrix written by WriteCSV. The configuration space
// must be supplied (the CSV stores points, not the grid definition)
// and every (kernel, configuration) cell must be present. A 7-column
// file, written before the status column, is refused by name. It
// parses in two stages: a goroutine runs encoding/csv and hands
// batches of records, two of them taking turns, to the caller's
// goroutine, which decodes them and fills the matrix in file order, so
// each error and its line number are the ones a loop over cr.Read
// would return. The reading stage is at most one batch
// (csvBatchRecords) ahead of the decoding one, so after a decode error
// r may have been read up to one batch further, and it is joined
// before ReadCSV returns.
func ReadCSV(r io.Reader, space hw.Space) (*Matrix, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // field-count errors carry line numbers via decode
	// Only the record slice is reused: each record's fields are fresh
	// strings, so a kernel name may be kept.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sweep: reading header: %w", err)
	}
	if len(header) == 7 && header[0] == "kernel" {
		return nil, errors.New("sweep: a 7-column sweep CSV, written before the status column; this build does not read it")
	}
	if len(header) != len(csvHeader) || header[0] != "kernel" {
		return nil, fmt.Errorf("sweep: unexpected header %v", header)
	}

	// Two batches take turns: the reading stage fills one while the
	// decoding stage works through the other. Each channel can hold
	// both, so no send blocks.
	free, full := make(chan *csvBatch, 2), make(chan *csvBatch, 2)
	for range 2 {
		free <- &csvBatch{fields: make([]string, 0, len(header)*csvBatchRecords), ends: make([]int, 0, csvBatchRecords)}
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			var b *csvBatch
			select {
			case b = <-free:
			case <-stop:
				return
			}
			b.fields, b.ends, b.err = b.fields[:0], b.ends[:0], nil
			for b.err == nil && len(b.ends) < csvBatchRecords {
				var rec []string
				if rec, b.err = cr.Read(); b.err == nil {
					b.fields = append(b.fields, rec...)
					b.ends = append(b.ends, len(b.fields))
				}
			}
			full <- b
			if b.err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-stopped
	}()

	d := newCSVDecoder(space)
	m := &Matrix{Space: space}
	rows := map[string]int{}
	nCfg := space.Size()
	var filled [][]bool
	ri := -1
	line := 1
	for {
		b := <-full
		start := 0
		for _, end := range b.ends {
			line++
			cell, err := d.decode(b.fields[start:end], line)
			if err != nil {
				return nil, err
			}
			start = end
			// A kernel's cells arrive together: only a change of name
			// needs the lookup.
			if ri < 0 || cell.kernel != m.Kernels[ri] {
				var ok bool
				if ri, ok = rows[cell.kernel]; !ok {
					ri = len(m.Kernels)
					rows[cell.kernel] = ri
					m.Kernels = append(m.Kernels, cell.kernel)
					m.Throughput = append(m.Throughput, make([]float64, nCfg))
					m.TimeNS = append(m.TimeNS, make([]float64, nCfg))
					m.Bound = append(m.Bound, make([]gcn.Bound, nCfg))
					m.Status = append(m.Status, make([]CellStatus, nCfg))
					filled = append(filled, make([]bool, nCfg))
				}
			}
			m.Throughput[ri][cell.ci] = cell.tput
			m.TimeNS[ri][cell.ci] = cell.tns
			m.Bound[ri][cell.ci] = cell.bound
			m.Status[ri][cell.ci] = cell.status
			filled[ri][cell.ci] = true
		}
		if b.err == io.EOF {
			break
		}
		if b.err != nil {
			line++
			return nil, fmt.Errorf("sweep: line %d: %w", line, b.err)
		}
		free <- b
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
