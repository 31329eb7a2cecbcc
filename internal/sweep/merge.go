package sweep

// Reading a journal back for comparison. A fleet's rows land in one
// journal per job, in completion order, which worker scheduling
// perturbs; ReadJournal recovers that journal's matrix without
// repairing anything, and CanonicalJournalBytes renders a matrix with
// rows in a caller-chosen order. Comparing two journals through that
// canonical rendering is what makes "byte-identical to a single-node
// run" checkable.

import (
	"fmt"
	"os"

	"gpuscale/internal/hw"
)

// ReadJournal reads a v3 journal image without opening it for append:
// no truncation, no repair. A file of an earlier format is refused by
// name, as OpenJournal refuses it. Unlike
// OpenJournal it rejects a torn or corrupt tail instead of salvaging —
// a comparison must not silently drop rows the journal claims to hold.
// A zero space reads the journal against the space its space record
// names. Returns the recovered matrix, which is nil when the journal
// holds a space record but no rows.
func ReadJournal(path string, space hw.Space) (*Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: reading journal: %w", err)
	}
	w, err := walkJournal(imageFrames(data), space)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if w.good < int64(len(data)) {
		return nil, fmt.Errorf("sweep: journal %s: %s", path, w.reason)
	}
	if w.good == 0 {
		return nil, fmt.Errorf("sweep: journal %s: missing or torn header", path)
	}
	return w.matrix()
}

// CanonicalJournalBytes renders m as journal bytes with rows in
// the given kernel order, without touching disk — the comparison form
// for byte-identity assertions. Every named kernel must be present in
// m with a fully OK row.
func CanonicalJournalBytes(m *Matrix, order []string) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("sweep: canonical journal: nil matrix")
	}
	buf, err := journalHeader(m.Space)
	if err != nil {
		return nil, err
	}
	for _, k := range order {
		r := m.Row(k)
		if r < 0 {
			return nil, fmt.Errorf("sweep: canonical journal: kernel %s missing", k)
		}
		if !m.RowComplete(r) {
			return nil, fmt.Errorf("sweep: canonical journal: kernel %s row incomplete", k)
		}
		rec, err := rowRecord(m, r)
		if err != nil {
			return nil, err
		}
		buf = append(buf, rec...)
	}
	return buf, nil
}
