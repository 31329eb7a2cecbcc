package dist

import (
	"bytes"
	"math"
	"testing"

	"gpuscale/internal/durable"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
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
		recs, good := scanLedger(data, int64(len(ledgerMagic)))
		if good < int64(len(ledgerMagic)) || good > int64(len(data)) {
			t.Fatalf("clean prefix %d outside [%d,%d]", good, len(ledgerMagic), len(data))
		}
		// Torn-tail salvage must be a fixpoint: rescanning the clean
		// prefix recovers exactly the same records.
		recs2, good2 := scanLedger(data[:good], int64(len(ledgerMagic)))
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

// FuzzUnpackPlanes hammers the coordinator's unpacking of a complete's
// planes (checkRow) — the one path between the wire and every fleet
// journal — with arbitrary bytes. It must never panic, and every input
// it accepts must come back as the accepted record's packed planes,
// bit for bit, digested as a worker digests the same row, so the
// digest a coordinator checks is the one an honest worker attests.
// The row format itself is fuzzed in internal/sweep.
func FuzzUnpackPlanes(f *testing.F) {
	space, err := hw.NewSpace([]int{4, 44}, []float64{200}, []float64{150, 1250})
	if err != nil {
		f.Fatal(err)
	}
	n := space.Size()
	k := kernel.New("s", "p", "fuzz").Geometry(64, 256).MustBuild()
	rec, err := sweep.EncodePlanes(k.Name,
		[]float64{1, 2.5, 1e-300, math.MaxFloat64},
		[]float64{math.SmallestNonzeroFloat64, 3, 1e21, 7e-7},
		[]gcn.Bound{gcn.BoundCompute, gcn.BoundDRAM, gcn.BoundLatency, gcn.BoundLaunch})
	if err != nil {
		f.Fatal(err)
	}
	valid := rec.Packed()
	f.Add(valid)
	for _, tc := range badPlanes(valid, n) {
		f.Add(tc.planes)
	}
	f.Add([]byte(nil))
	js := &jobState{job: Job{Name: "j", Kernels: []*kernel.Kernel{k}, Space: space}, rows: make([]rowState, 1)}

	f.Fuzz(func(t *testing.T, b []byte) {
		row := checkRow(js, rowComplete{OK: true, Planes: b})
		if row.err != nil {
			return
		}
		if !bytes.Equal(row.rec.Packed(), b) {
			t.Fatal("accepted planes are not the record's, bit for bit")
		}
		tput, timeNS, bound := row.rec.Planes()
		worker, err := sweep.EncodePlanes(k.Name, tput, timeNS, bound)
		if err != nil {
			t.Fatalf("accepted planes do not encode: %v", err)
		}
		if d := sweep.RecordDigest(worker); d != row.digest {
			t.Fatalf("coordinator digest %s, worker digest %s", row.digest, d)
		}
	})
}

// FuzzCompleteBody hammers the coordinator's reading of a complete's
// body (decodeComplete) with arbitrary bytes. It must never panic, and
// a body it accepts must be the one encoding of what it read: the
// request encodes back to the body, byte for byte.
func FuzzCompleteBody(f *testing.F) {
	body := completeRequest{Worker: "w", Job: "j", Rows: []rowComplete{
		{rowRef: rowRef{Row: 3, Epoch: 1, Term: 2}, OK: true, Planes: []byte("planes"), Digest: "v3:00aa", CostNS: 7},
		{rowRef: rowRef{Row: 4, Epoch: 2, Term: 2}},
		{rowRef: rowRef{Row: 5, Epoch: 1, Term: 2}, OK: true, Planes: []byte{0, '\n', 0xff}, Digest: "v3:11bb"},
	}}.encode()
	f.Add(body)
	f.Add(body[:len(body)-3])                              // torn planes frame
	f.Add(completeRequest{Worker: "w", Job: "j"}.encode()) // no rows
	f.Add([]byte(`{"worker":"w","job":"j","rows":[]}`))    // JSON, no frames
	f.Add(append(durable.Frame([]byte(`{"worker":"w","job":"j","rows":[{"row":4,"epoch":2,"ok":false}]}`)),
		durable.Frame([]byte("planes"))...)) // a frame for a failed row
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeComplete(b)
		if err != nil {
			return
		}
		if again := req.encode(); !bytes.Equal(again, b) {
			t.Fatalf("accepted body %q encodes back as %q", b, again)
		}
	})
}

// FuzzTailBody hammers the standby's reading of a tail's body
// (decodeTail) with arbitrary bytes. It must never panic, and a body
// it accepts must be the one encoding of what it read: the answer
// encodes back to the body, byte for byte.
func FuzzTailBody(f *testing.F) {
	body := tailResponse{ID: "p", Term: 2, Next: 7, Msgs: []replMsg{
		{Cursor: 4, Append: true, replFile: replFile{Name: ledgerName, Data: []byte("frames")}},
		{Cursor: 5, replFile: replFile{Name: "job-000001.state"}}, // an empty file: no frame
		{Cursor: 6, replFile: replFile{Name: "job-000001.journal", Data: []byte{0, '\n', 0xff}}},
	}}.encode()
	f.Add(body)
	f.Add(body[:len(body)-2])                      // torn last frame
	f.Add(tailResponse{ID: "p", Term: 1}.encode()) // no messages
	f.Add([]byte(`{"id":"p","term":1,"next":1,"msgs":[{"cursor":0,"name":"x","data":"eA=="}]}`))
	f.Add(append(durable.Frame([]byte(`{"id":"p","term":1,"next":1,"msgs":[{"cursor":0,"name":"x","len":5}]}`)),
		durable.Frame([]byte("abc"))...)) // a length its frame does not hold
	f.Add(durable.Frame([]byte(`{"id":"p","term":1,"next":1,"msgs":[{"cursor":0,"name":"x","len":3}]}`))) // no frame
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := decodeTail(b)
		if err != nil {
			return
		}
		if again := tr.encode(); !bytes.Equal(again, b) {
			t.Fatalf("accepted body %q encodes back as %q", b, again)
		}
	})
}
