package dist

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/sweep"
)

// FuzzLedgerScan hammers the lease-ledger recovery scanner with
// arbitrary bytes: it must never panic, never claim a clean prefix
// outside the input, rescan its own clean prefix as a fixpoint, and
// roundtrip every frame it accepts — the invariants replication
// leans on when a standby appends the primary's frames verbatim and
// a promoted replica replays them.
func FuzzLedgerScan(f *testing.F) {
	ledgerImage := func(recs ...LedgerRecord) []byte {
		b := []byte(ledgerMagic)
		for _, r := range recs {
			framed, err := frameRecord(r)
			if err != nil {
				f.Fatal(err)
			}
			b = append(b, framed...)
		}
		return b
	}
	full := ledgerImage(
		LedgerRecord{Kind: "term", Term: 1, Worker: "primary-1", GrantedNS: 1},
		LedgerRecord{Kind: "grant", Job: "j", Row: 0, Epoch: 1, Term: 1,
			Worker: "w1", GrantedNS: 2, ExpiryNS: 10},
		LedgerRecord{Kind: "complete", Job: "j", Row: 0, Epoch: 1, Term: 1,
			Worker: "w1", Digest: "00aa11bb22cc33dd"},
		LedgerRecord{Kind: "term", Term: 2, Worker: "standby-1", GrantedNS: 20},
	)
	f.Add(full)
	f.Add(full[:len(full)-9]) // torn tail mid-frame
	badCRC := append([]byte(nil), full...)
	badCRC[len(ledgerMagic)] ^= 0x40 // corrupt the first frame's checksum
	f.Add(badCRC)
	f.Add([]byte(ledgerMagic))            // header only
	f.Add([]byte(ledgerMagic[:7]))        // torn magic
	f.Add([]byte("deadbeef 2 {}\n"))      // frame without magic
	f.Add([]byte("00000000 0 \n"))        // zero-length payload
	f.Add([]byte("ffffffff 999999999 x")) // absurd length field
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The single-frame parser is also the replication receive path
		// (the standby CRC-checks each streamed frame at offset 0), so
		// it must be total on arbitrary bytes.
		if rec, next, ok := parseLedgerRecord(data, 0); ok {
			if next <= 0 || next > int64(len(data)) {
				t.Fatalf("accepted frame claims end %d outside (0,%d]", next, len(data))
			}
			framed, err := frameRecord(rec)
			if err != nil {
				t.Fatalf("accepted record does not reframe: %v", err)
			}
			rec2, _, ok2 := parseLedgerRecord(framed, 0)
			if !ok2 || rec2 != rec {
				t.Fatalf("frame roundtrip mangled the record: %+v vs %+v", rec, rec2)
			}
		}
		// The scanner proper runs behind the magic check, exactly as
		// openLedger and ReadLedger gate it.
		if !bytes.HasPrefix(data, []byte(ledgerMagic)) {
			return
		}
		recs, good := scanLedger(data)
		if good < int64(len(ledgerMagic)) || good > int64(len(data)) {
			t.Fatalf("clean prefix %d outside [%d,%d]", good, len(ledgerMagic), len(data))
		}
		// Torn-tail salvage must be a fixpoint: rescanning the clean
		// prefix recovers exactly the same records.
		recs2, good2 := scanLedger(data[:good])
		if good2 != good || len(recs2) != len(recs) {
			t.Fatalf("rescan of clean prefix diverged: %d/%d records, %d/%d bytes",
				len(recs2), len(recs), good2, good)
		}
		for i := range recs {
			if recs[i] != recs2[i] {
				t.Fatalf("rescan record %d diverged: %+v vs %+v", i, recs[i], recs2[i])
			}
		}
		// Whatever was salvaged must be auditable without panicking —
		// a verdict either way is fine, a crash is not.
		AuditLedger(recs)
	})
}

// FuzzUnpackPlanes hammers the packed-plane decoder — the one parser
// between the wire and every fleet journal — with arbitrary bytes. It
// must never panic; every input it accepts must round-trip bit-exactly
// through packPlanes; and every accepted plane set must render to a
// record the journal's own validation accepts on reload, so nothing
// the wire admits can truncate a journal at recovery.
func FuzzUnpackPlanes(f *testing.F) {
	space, err := hw.NewSpace([]int{4, 44}, []float64{200}, []float64{150, 1250})
	if err != nil {
		f.Fatal(err)
	}
	n := space.Size()
	valid := packPlanes(
		[]float64{1, 2.5, 1e-300, math.MaxFloat64},
		[]float64{math.SmallestNonzeroFloat64, 3, 1e21, 7e-7},
		[]gcn.Bound{gcn.BoundCompute, gcn.BoundDRAM, gcn.BoundLatency, gcn.BoundLaunch})
	f.Add(valid)
	for _, tc := range badPlanes(valid, n) {
		f.Add(tc.planes)
	}
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := unpackPlanes(n, b)
		if err != nil {
			return
		}
		if !bytes.Equal(packPlanes(p.tput, p.timeNS, p.bound), b) {
			t.Fatal("accepted planes do not round-trip bit-exactly")
		}
		rec, err := sweep.EncodePlanes("fuzz", p.tput, p.timeNS, p.bound)
		if err != nil {
			t.Fatalf("accepted planes do not render: %v", err)
		}
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		j, err := sweep.OpenJournal(path, space)
		if err != nil {
			t.Fatal(err)
		}
		err = j.AppendRecord(rec)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := sweep.ReadJournal(path, space)
		if err != nil || m == nil || len(m.Kernels) != 1 {
			t.Fatalf("the journal refused a record rendered from accepted planes: %v", err)
		}
		for c := 0; c < n; c++ {
			if math.Float64bits(m.Throughput[0][c]) != math.Float64bits(p.tput[c]) ||
				math.Float64bits(m.TimeNS[0][c]) != math.Float64bits(p.timeNS[c]) || m.Bound[0][c] != p.bound[c] {
				t.Fatalf("config %d changed on its way through the journal", c)
			}
		}
	})
}
