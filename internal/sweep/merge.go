package sweep

// Journal merge: folding per-worker row journals back into one
// canonical matrix journal.
//
// A distributed sweep shards the kernel axis across workers, each of
// which keeps its own v2 journal of the rows it completed. The merge
// step reads those journals, checks the shards agree wherever they
// overlap (work-stealing can complete a row on two workers — the
// seeded noise stream makes both computations bit-identical, so any
// disagreement is a real bug, not jitter), and writes one journal
// with rows in a caller-chosen canonical order. Canonical ordering is
// what makes "byte-identical to a single-node run" checkable: a
// single-node journal appends rows in completion order, which worker
// scheduling perturbs, so both sides are compared through
// WriteCanonicalJournal.

import (
	"fmt"
	"os"

	"gpuscale/internal/durable"
	"gpuscale/internal/hw"
)

// ReadJournal reads a v2 journal image without opening it for append:
// no truncation, no migration, no repair. Unlike OpenJournal it
// rejects a torn or corrupt tail instead of salvaging — the merge
// step must not silently drop rows a worker claims to have completed.
// Returns the recovered matrix, which is nil when the journal holds a
// space record but no rows.
func ReadJournal(path string, space hw.Space) (*Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: reading journal: %w", err)
	}
	m, good, reason, err := scanJournal(data, space)
	if err != nil {
		return nil, err
	}
	if good < int64(len(data)) {
		return nil, fmt.Errorf("sweep: journal %s: %s", path, reason)
	}
	if good == 0 {
		return nil, fmt.Errorf("sweep: journal %s: missing or torn header", path)
	}
	return m, nil
}

// MergeJournals folds the journals at srcs into one matrix. Every
// journal must be clean (see ReadJournal) and written for the same
// space. Rows appear in first-seen order; a kernel present in more
// than one journal must carry identical planes in each — exact
// float64 equality, which seeded noise guarantees for honest
// re-executions of the same row — or the merge fails rather than
// pick a side.
func MergeJournals(space hw.Space, srcs ...string) (*Matrix, error) {
	return MergeJournalsAttested(space, nil, srcs...)
}

// MergeJournalsAttested is MergeJournals under attestation: attest
// maps kernel names to the digests (RowDigest form) the coordinator
// recorded when it accepted each row. A journal row whose bytes hash
// to something other than its attested digest is refused with an
// error naming the journal, the kernel, its row position, and both
// digests — the signature of a worker whose journal disagrees with
// what it shipped over the wire, or of post-hoc file damage the CRC
// frame cannot see (the frame guards the bytes, the attestation
// guards the values). Kernels absent from attest merge unverified,
// so a nil map degrades to plain MergeJournals.
func MergeJournalsAttested(space hw.Space, attest map[string]string, srcs ...string) (*Matrix, error) {
	var merged *Matrix
	rows := map[string]int{}
	for _, src := range srcs {
		m, err := ReadJournal(src, space)
		if err != nil {
			return nil, err
		}
		if m == nil {
			continue
		}
		for r, k := range m.Kernels {
			if want, ok := attest[k]; ok {
				got, err := RowDigest(m, r)
				if err != nil {
					return nil, fmt.Errorf("sweep: merge: journal %s row %d (%s): %w", src, r, k, err)
				}
				if got != want {
					return nil, fmt.Errorf("sweep: merge: journal %s row %d (%s): digest %s does not match attested %s",
						src, r, k, got, want)
				}
			}
			ri, seen := rows[k]
			if seen {
				if c := rowsDiff(merged, ri, m, r); c >= 0 {
					return nil, fmt.Errorf("sweep: merge conflict: journal %s row %d disagrees on kernel %s at config %d",
						src, r, k, c)
				}
				continue
			}
			if merged == nil {
				merged = &Matrix{Space: space}
			}
			rows[k] = len(merged.Kernels)
			merged.Kernels = append(merged.Kernels, k)
			merged.Throughput = append(merged.Throughput, m.Throughput[r])
			merged.TimeNS = append(merged.TimeNS, m.TimeNS[r])
			merged.Bound = append(merged.Bound, m.Bound[r])
			merged.Status = append(merged.Status, m.Status[r])
		}
	}
	return merged, nil
}

// rowsDiff compares row a of ma against row b of mb cell by cell,
// returning the first disagreeing configuration index, or -1 when the
// rows are identical.
func rowsDiff(ma *Matrix, a int, mb *Matrix, b int) int {
	for c := 0; c < ma.Space.Size(); c++ {
		if ma.Throughput[a][c] != mb.Throughput[b][c] ||
			ma.TimeNS[a][c] != mb.TimeNS[b][c] ||
			ma.Bound[a][c] != mb.Bound[b][c] {
			return c
		}
	}
	return -1
}

// WriteCanonicalJournal writes m as a v2 journal at path with rows in
// the given kernel order — the byte-stable rendering two journals are
// compared through. Every named kernel must be present in m with a
// fully OK row. The file is replaced atomically, so a crash mid-write
// leaves either the old file or the new one, never a hybrid.
func WriteCanonicalJournal(path string, m *Matrix, order []string) error {
	buf, err := canonicalJournalBytes(m, order)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(path, durable.Bytes(buf)); err != nil {
		return fmt.Errorf("sweep: writing canonical journal: %w", err)
	}
	return nil
}

// CanonicalJournalBytes renders m as v2 journal bytes with rows in
// the given kernel order, without touching disk — the comparison form
// for byte-identity assertions.
func CanonicalJournalBytes(m *Matrix, order []string) ([]byte, error) {
	return canonicalJournalBytes(m, order)
}

func canonicalJournalBytes(m *Matrix, order []string) ([]byte, error) {
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
