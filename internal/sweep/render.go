package sweep

// Rendering a job's matrix from its journal. A journal holds a job's
// complete rows, each as the last record for its kernel in the clean
// prefix; the job's other settled rows — a row with a cell that is not
// OK, a complete row whose append failed, a row a quarantine retracted
// — are few, and the job's owner keeps them: its unjournaled rows. The
// journal plus those rows is the job's matrix, so WriteJournalCSV
// renders it as WriteCSV renders a Matrix without building one: it
// walks the journal (journalWalk) to find each kernel's last record
// in the file, then unpacks and renders one row per renderer at a time,
// and writes the rows in job order. It reads the file through a
// descriptor of its own, so a render takes no lock of an open
// Journal's and never stalls an append.

import (
	"fmt"
	"io"
	"math"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
)

// Row is one kernel row of a matrix, by value: its measurement planes
// and the status of each cell, one entry per configuration. It is how
// a job's owner keeps, and records, a row its journal does not hold.
type Row struct {
	Throughput []float64    `json:"throughput"`
	TimeNS     []float64    `json:"time_ns"`
	Bound      []gcn.Bound  `json:"bound"`
	Status     []CellStatus `json:"status"`
}

// WriteJournalCSV writes the matrix of kernels over space to w, byte
// for byte as WriteCSV writes it, from the journal at path and the
// rows it does not hold: row r is unjournaled[r] when there is one,
// else the last record for its kernel in the journal's clean prefix
// (the records recovery keeps), else a canceled row of zeros, a row
// not yet settled. The file must be a v3 journal of space or what a
// crash left of one; a file without a clean space record holds no
// rows. Nothing is written to w before the journal's head is read, so
// a missing, refused or unreadable journal leaves w untouched. Rows
// render as WriteCSV's do, on up to runtime.GOMAXPROCS(0) goroutines,
// each with its own frame buffer, joined before WriteJournalCSV
// returns; only the calling goroutine writes to w, and a record that
// changed during the render stops it with the rows before it written.
func WriteJournalCSV(w io.Writer, path string, space hw.Space, kernels []string, unjournaled map[int]Row) error {
	nCfg := space.Size()
	if nCfg == 0 {
		return fmt.Errorf("sweep: rendering %s: empty configuration space", path)
	}
	for r, row := range unjournaled {
		if r < 0 || r >= len(kernels) || len(row.Throughput) != nCfg || len(row.TimeNS) != nCfg ||
			len(row.Bound) != nCfg || len(row.Status) != nCfg {
			return fmt.Errorf("sweep: rendering %s: unjournaled row %d is not a row of the job", path, r)
		}
	}
	fr, err := openFrames(path)
	if err != nil {
		return fmt.Errorf("sweep: rendering journal: %w", err)
	}
	defer fr.f.Close()
	jw, err := walkJournal(fr, space)
	if err != nil {
		return fmt.Errorf("sweep: rendering %s: %w", path, err)
	}
	canceled := NewRow(nCfg, StatusCanceled)
	return writeRows(w, space, kernels, func() rowFunc {
		// A renderer's own frame buffer, as large as the largest
		// record, and planes to unpack into.
		fr := jw.frames
		fr.buf = make([]byte, jw.largest)
		journaled := NewRow(nCfg, StatusOK)
		return func(r int) (Row, error) {
			if row, ok := unjournaled[r]; ok {
				return row, nil
			}
			i, ok := jw.index[kernels[r]]
			if !ok {
				return canceled, nil
			}
			if err := fr.unpack(jw.last[i], kernels[r], journaled); err != nil {
				return Row{}, fmt.Errorf("sweep: rendering %s: %w", path, err)
			}
			return journaled, nil
		}
	})
}

// Blank reports whether row is, bit for bit, a canceled row of zeros:
// the row WriteJournalCSV renders for a kernel that neither the journal
// nor the unjournaled rows hold. Where no journal record lies behind
// it, a blank row renders the same whether its owner keeps it or not.
func (row Row) Blank() bool {
	n := len(row.Status)
	if len(row.Throughput) != n || len(row.TimeNS) != n || len(row.Bound) != n {
		return false
	}
	for c, st := range row.Status {
		if st != StatusCanceled || math.Float64bits(row.Throughput[c]) != 0 ||
			math.Float64bits(row.TimeNS[c]) != 0 || row.Bound[c] != 0 {
			return false
		}
	}
	return true
}

// NewRow returns a row of zeros whose every cell has status st.
func NewRow(nCfg int, st CellStatus) Row {
	row := Row{Throughput: make([]float64, nCfg), TimeNS: make([]float64, nCfg),
		Bound: make([]gcn.Bound, nCfg), Status: make([]CellStatus, nCfg)}
	for c := range row.Status {
		row.Status[c] = st
	}
	return row
}
