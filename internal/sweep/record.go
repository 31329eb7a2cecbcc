package sweep

// The row record: journal v3's payload for one complete kernel row,
// and the bytes every fleet process ships, digests and appends.
//
//	<uvarint len(kernel)> <kernel bytes>
//	<throughput of each configuration, little-endian float64 bits>
//	<time of each configuration, little-endian float64 bits>
//	<bound of each configuration, one byte each>
//
// Everything after the name is the row's packed planes, PackedBytes(n)
// bytes for an n-configuration space: the form a lease complete and the
// replication stream carry a row in. So a worker digests the bytes it
// ships, a coordinator checks and appends the bytes it received, and a
// standby appends the bytes it replicates; no process renders a row.
// Every constructor applies the journal's hygiene checks, so a
// RowRecord always holds a row that recovery accepts.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"gpuscale/internal/gcn"
)

// PackedBytes is the length of an n-configuration row's packed planes:
// 8 bytes of throughput, 8 of time and 1 of bound per configuration.
func PackedBytes(n int) int { return 17 * n }

// RowRecord is one complete kernel row's journal record payload: the
// bytes a journal frames and fsyncs, and the bytes a row digest hashes.
// Only EncodeRow, EncodePlanes and PackedRecord make one.
type RowRecord struct {
	kernel  string
	cells   int
	payload []byte
}

// Len is the size of the record's payload in bytes.
func (r RowRecord) Len() int { return len(r.payload) }

// Packed returns the record's packed planes, the tail of its payload;
// the caller must not modify them.
func (r RowRecord) Packed() []byte { return r.payload[len(r.payload)-PackedBytes(r.cells):] }

// Planes returns the record's measurement planes, freshly allocated.
func (r RowRecord) Planes() (tput, timeNS []float64, bound []gcn.Bound) {
	return unpackPlanes(r.cells, r.Packed())
}

// EncodeRow builds row r of m's record. The row must be complete (all
// StatusOK) — the only kind of row a journal holds.
func EncodeRow(m *Matrix, r int) (RowRecord, error) {
	if !m.RowComplete(r) {
		return RowRecord{}, fmt.Errorf("sweep: incomplete row %s has no journal record", m.Kernels[r])
	}
	return EncodePlanes(m.Kernels[r], m.Throughput[r], m.TimeNS[r], m.Bound[r])
}

// EncodePlanes builds the record of one complete row from its
// measurement planes, which must be equally long, one entry per
// configuration, and pass the journal's hygiene checks.
func EncodePlanes(kernelName string, tput, timeNS []float64, bound []gcn.Bound) (RowRecord, error) {
	n := len(tput)
	if len(timeNS) != n || len(bound) != n {
		return RowRecord{}, fmt.Errorf("sweep: encoding %s: planes of unequal length", kernelName)
	}
	payload := appendName(make([]byte, 0, binary.MaxVarintLen64+len(kernelName)+PackedBytes(n)), kernelName)
	for _, v := range tput {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
	}
	for _, v := range timeNS {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
	}
	for _, b := range bound {
		if b < gcn.BoundCompute || b > gcn.BoundLaunch {
			b = -1 // packs as 0xff, which the hygiene check refuses
		}
		payload = append(payload, byte(b))
	}
	if err := checkRecord(kernelName, n, payload[len(payload)-PackedBytes(n):]); err != nil {
		return RowRecord{}, fmt.Errorf("sweep: encoding %s: %w", kernelName, err)
	}
	return RowRecord{kernel: kernelName, cells: n, payload: payload}, nil
}

// PackedRecord builds kernelName's record over packed planes as
// received for an nCfg-configuration space, copying them once. When
// the planes fail the hygiene checks, the error names the first
// offending cell's fault: the plane length, then each configuration's
// throughput, time and bound, in order.
func PackedRecord(kernelName string, nCfg int, packed []byte) (RowRecord, error) {
	if err := checkRecord(kernelName, nCfg, packed); err != nil {
		return RowRecord{}, err
	}
	payload := appendName(make([]byte, 0, binary.MaxVarintLen64+len(kernelName)+len(packed)), kernelName)
	return RowRecord{kernel: kernelName, cells: nCfg, payload: append(payload, packed...)}, nil
}

// appendName appends a record's kernel name, length first.
func appendName(b []byte, name string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(name))), name...)
}

// checkRecord applies the hygiene checks to a record's kernel name and
// packed planes.
func checkRecord(name string, nCfg int, packed []byte) error {
	if name == "" {
		return errors.New("no kernel name")
	}
	return checkPlanes(nCfg, packed)
}

// checkRowRecord applies the hygiene checks to a v3 row record for an
// nCfg-configuration space where it lies, and returns its kernel name
// and packed planes; reason is non-empty when the payload is not such
// a record. The name's length must be in its shortest form, so a
// record reads back to the same bytes it was read from.
func checkRowRecord(payload []byte, nCfg int) (name, packed []byte, reason string) {
	l, n := binary.Uvarint(payload)
	if n <= 0 || payload[n-1] == 0 {
		// payload[n-1] == 0 is an empty name or a padded length.
		return nil, nil, "row record with no kernel"
	}
	rest := payload[n:]
	if l > uint64(len(rest)) {
		return nil, nil, "row record with a torn kernel name"
	}
	name, packed = rest[:l], rest[l:]
	if err := checkPlanes(nCfg, packed); err != nil {
		return nil, nil, fmt.Sprintf("row record for %q has %v", name, err)
	}
	return name, packed, ""
}

// checkPlanes applies the journal's hygiene to packed planes for an
// nCfg-configuration space: the exact length, every measurement a
// positive finite number, every bound a known one — checked cell by
// cell in that order, so the first offending cell names the error.
func checkPlanes(nCfg int, b []byte) error {
	if len(b) != PackedBytes(nCfg) {
		return errors.New("wrong plane length")
	}
	for c := 0; c < nCfg; c++ {
		tput := math.Float64frombits(binary.LittleEndian.Uint64(b[8*c:]))
		timeNS := math.Float64frombits(binary.LittleEndian.Uint64(b[8*(nCfg+c):]))
		bound := gcn.Bound(b[16*nCfg+c])
		if !(tput > 0) || math.IsInf(tput, 0) {
			return errors.New("out-of-range throughput")
		}
		if !(timeNS > 0) || math.IsInf(timeNS, 0) {
			return errors.New("out-of-range time")
		}
		if bound < gcn.BoundCompute || bound > gcn.BoundLaunch {
			return errors.New("unknown bound")
		}
	}
	return nil
}

// unpackPlanes decodes packed planes checkPlanes accepted.
func unpackPlanes(nCfg int, b []byte) (tput, timeNS []float64, bound []gcn.Bound) {
	tput, timeNS, bound = make([]float64, nCfg), make([]float64, nCfg), make([]gcn.Bound, nCfg)
	unpackInto(b, tput, timeNS, bound)
	return tput, timeNS, bound
}

// unpackInto decodes packed planes checkPlanes accepted into planes of
// one entry per configuration.
func unpackInto(b []byte, tput, timeNS []float64, bound []gcn.Bound) {
	nCfg := len(tput)
	for c := 0; c < nCfg; c++ {
		tput[c] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*c:]))
		timeNS[c] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*(nCfg+c):]))
		bound[c] = gcn.Bound(b[16*nCfg+c])
	}
}

// digestPrefix marks a v3 record digest. Journal v2 digested a row's
// JSON record as 16 bare hex digits, so an honest row's v2 and v3
// digests differ; the prefix keeps a digest written before v3 (a vote
// in a lease ledger, say) from ever being compared with one written
// after.
const digestPrefix = "v3:"

// RecordDigest hashes a row record: FNV-64a over its payload, as 16
// hex digits after digestPrefix. Because the digest covers exactly the
// bytes a journal append writes (modulo the CRC frame, which the CRC
// already guards), "the digest matches" and "the journaled bytes
// match" are the same statement — which is what lets a coordinator
// attest a row it received over the wire without re-running the
// engine. Honest re-executions of a row are bit-identical (seeded
// noise), so equal digests mean equal rows.
func RecordDigest(rec RowRecord) string {
	h := fnv.New64a()
	h.Write(rec.payload)
	return fmt.Sprintf("%s%016x", digestPrefix, h.Sum64())
}

// CurrentDigest reports whether d is a digest of this record format,
// and so may be compared with RecordDigest's.
func CurrentDigest(d string) bool { return strings.HasPrefix(d, digestPrefix) }

// RowDigest is RecordDigest over row r of m. The row must be complete
// (all StatusOK) — the only kind of row a journal holds.
func RowDigest(m *Matrix, r int) (string, error) {
	rec, err := EncodeRow(m, r)
	if err != nil {
		return "", err
	}
	return RecordDigest(rec), nil
}
