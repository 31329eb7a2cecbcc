package sweep

// Rendering a job's matrix from its journal. A journal holds a job's
// complete rows, each as the last record for its kernel in the clean
// prefix; the job's other settled rows — a row with a cell that is not
// OK, a complete row whose append failed, a row a quarantine retracted
// — are few, and the job's owner keeps them: its unjournaled rows. The
// journal plus those rows is the job's matrix, so WriteJournalCSV
// renders it as WriteCSV renders a Matrix without building one: it
// walks the journal's frames where they lie to find each kernel's last
// record, then unpacks and renders one row per renderer at a time,
// and writes the rows in job order. It reads the file through a
// descriptor of its own, so a render takes no lock of an open
// Journal's and never stalls an append.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"gpuscale/internal/durable"
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
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("sweep: rendering journal: %w", err)
	}
	defer f.Close()
	ix, err := indexJournal(f, space)
	if err != nil {
		return fmt.Errorf("sweep: rendering %s: %w", path, err)
	}
	canceled := NewRow(nCfg, StatusCanceled)
	return writeRows(w, space, kernels, func() rowFunc {
		// A renderer's own frame buffer, as large as the largest
		// record, and planes to unpack into.
		fr := &frameReader{f: f, size: ix.size, buf: make([]byte, ix.largest)}
		journaled := NewRow(nCfg, StatusOK)
		return func(r int) (Row, error) {
			if row, ok := unjournaled[r]; ok {
				return row, nil
			}
			off, ok := ix.last[kernels[r]]
			if !ok {
				return canceled, nil
			}
			if err := fr.unpack(off, kernels[r], journaled); err != nil {
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

// journalIndex is where, in a journal file's clean prefix, the last
// record of each kernel lies.
type journalIndex struct {
	frameReader
	last    map[string]int64 // the offset of a kernel's last record
	largest int64            // the size of the largest row record's frame
}

// frameReader reads the frames of a journal file through one buffer.
type frameReader struct {
	f    *os.File
	size int64  // the file's size when the walk began
	buf  []byte // one frame's bytes
}

// indexJournal walks f's frames as recovery scans them (scanJournal),
// from the magic and the space record to the first frame that is not a
// whole frame holding a row record for space, and notes each kernel's
// last record. A file whose magic or space record is torn holds no
// rows; a file of an earlier format (earlierFormat), or a journal of
// another space, is refused.
func indexJournal(f *os.File, space hw.Space) (*journalIndex, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	ix := &journalIndex{frameReader: frameReader{f: f, size: fi.Size(), buf: make([]byte, 4<<10)}, last: map[string]int64{}}
	n, err := f.ReadAt(ix.buf[:len(journalMagic)], 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if magic := ix.buf[:n]; string(magic) != journalMagic {
		if what := earlierFormat(magic); what != "" {
			return nil, fmt.Errorf("the journal is %s; this build reads only v3 journals", what)
		}
		return ix, nil
	}
	payload, off, why, err := ix.frame(int64(len(journalMagic)))
	if err != nil || why != "" {
		return ix, err
	}
	sp, why := parseSpaceRecord(payload)
	if why != "" {
		return ix, nil
	}
	if !sp.Equal(space) {
		return nil, errors.New("journal was written for a different configuration space")
	}
	for off < ix.size {
		payload, next, why, err := ix.frame(off)
		if err != nil {
			return nil, err
		}
		if why != "" {
			break
		}
		name, _, why := checkRowRecord(payload, space.Size())
		if why != "" {
			break
		}
		ix.last[string(name)] = off
		ix.largest = max(ix.largest, next-off)
		off = next
	}
	return ix, nil
}

// frame reads the frame at off and parses it as durable.Parse parses
// the file's bytes from off: it returns the payload, valid until the
// next call, and the next frame's offset, or why the bytes there are
// not a whole frame. It reads a frame the buffer cannot hold whole only
// when the file does, so a length field never sizes an allocation past
// the file.
func (fr *frameReader) frame(off int64) (payload []byte, next int64, reason string, err error) {
	n, err := fr.f.ReadAt(fr.buf, off)
	if err != nil && err != io.EOF {
		return nil, 0, "", err
	}
	if size, ok := durable.FrameSize(fr.buf[:n]); ok && size > int64(n) && off+size <= fr.size {
		// Room for a few more bytes of kernel name in the frames to come.
		fr.buf = make([]byte, size+size/8)
		if n, err = fr.f.ReadAt(fr.buf, off); err != nil && err != io.EOF {
			return nil, 0, "", err
		}
	}
	payload, next, reason = durable.Parse(fr.buf[:n], 0)
	return payload, off + next, reason, nil
}

// unpack reads the record at off, which the walk found to be name's
// last, into row's planes.
func (fr *frameReader) unpack(off int64, name string, row Row) error {
	payload, _, why, err := fr.frame(off)
	if err != nil {
		return err
	}
	var got, packed []byte
	if why == "" {
		got, packed, why = checkRowRecord(payload, len(row.Throughput))
	}
	if why != "" || string(got) != name {
		return fmt.Errorf("the record for %s at byte %d changed during the render", name, off)
	}
	unpackInto(packed, row.Throughput, row.TimeNS, row.Bound)
	return nil
}
