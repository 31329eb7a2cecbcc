package obs

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestFlightRingWrapsAndOrders(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		fr.record("tick", time.Now(), appendArgs(nil, []KV{KN("i", float64(i))}))
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(7 + i)
		if ev.Seq != wantSeq || ev.Kind != "tick" {
			t.Fatalf("event %d = seq %d kind %q, want seq %d", i, ev.Seq, ev.Kind, wantSeq)
		}
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.record("lease", time.Now(), appendArgs(nil, []KV{KS("job", "j"), KN("row", 3)}))
	fr.record("shed", time.Now(), appendArgs(nil, []KV{KS("reason", "queue_full")}))
	var buf bytes.Buffer
	if err := fr.WriteDump(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadFlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Kind != "lease" || evs[1].Kind != "shed" {
		t.Fatalf("dump round trip = %+v", evs)
	}
	if evs[0].Args["row"].(float64) != 3 {
		t.Fatalf("args lost: %+v", evs[0].Args)
	}
}

func TestFlightFileSurvivesWithoutClose(t *testing.T) {
	// Simulates kill -9: record events, never Close, recover from the
	// path. The file contents must already be there.
	path := filepath.Join(t.TempDir(), "flight.ring")
	fr, err := OpenFlightRecorder(path, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		fr.record("lease", time.Now(), appendArgs(nil, []KV{KN("row", float64(i))}))
	}
	// No Close, no Sync — read the file as a fresh process would.
	evs, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 8 {
		t.Fatalf("recovered %d events, want 8 (ring size)", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(5+i) {
			t.Fatalf("recovered seq %d at %d, want %d", ev.Seq, i, 5+i)
		}
		if ev.Args["row"].(float64) != float64(5+i) {
			t.Fatalf("recovered args %+v at seq %d", ev.Args, ev.Seq)
		}
	}
	fr.Close()
}

// TestFlightFilePwriteFallback: where the platform cannot map the
// file, each record pwrites its slot instead — the same file, read back
// the same way.
func TestFlightFilePwriteFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ring")
	fr, err := OpenFlightRecorder(path, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	if fr.mapped != nil {
		if err := unmapFlightFile(fr.mapped); err != nil {
			t.Fatal(err)
		}
		fr.mapped, fr.buf = nil, make([]byte, 256)
	}
	for i := 1; i <= 6; i++ {
		fr.record("lease", time.Now(), appendArgs(nil, []KV{KN("row", float64(i))}))
	}
	evs, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 || evs[0].Seq != 3 || evs[3].Args["row"] != 6.0 {
		t.Fatalf("pwritten ring recovered %+v", evs)
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightFileTornSlotSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ring")
	fr, err := OpenFlightRecorder(path, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		fr.record("ev", time.Now(), appendArgs(nil, []KV{KN("i", float64(i))}))
	}
	fr.Close()
	// Tear slot 1 (seq 2): flip a payload byte so the CRC fails.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(flightHeaderSize + 1*256 + flightSlotHeader + 3)
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	evs, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("recovered %d events, want 3 (one torn)", len(evs))
	}
	for _, ev := range evs {
		if ev.Seq == 2 {
			t.Fatal("torn slot seq 2 survived its CRC check")
		}
	}
}

func TestFlightFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-ring")
	if err := os.WriteFile(path, []byte("hello world, definitely not a flight file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFlightFile(path); err == nil {
		t.Fatal("garbage file recovered without error")
	}
}

func TestFlightConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ring")
	fr, err := OpenFlightRecorder(path, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				fr.record("ev", time.Now(), appendArgs(nil, []KV{KN("g", float64(g)), KN("i", float64(i))}))
			}
		}(g)
	}
	wg.Wait()
	evs := fr.Events()
	if len(evs) != 64 || evs[63].Seq != 400 {
		t.Fatalf("ring holds %d events ending at seq %d, want 64 ending at 400", len(evs), evs[len(evs)-1].Seq)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring not seq-ordered at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	rec, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 64 {
		t.Fatalf("file ring recovered %d, want 64", len(rec))
	}
	fr.Close()
}

func TestFlightOversizedEventDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.ring")
	fr, err := OpenFlightRecorder(path, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	fr.record("small", time.Now(), nil)
	fr.record("big", time.Now(), appendArgs(nil, []KV{KS("blob", string(make([]byte, 4096)))}))
	fr.record("small2", time.Now(), nil)
	fr.Close()
	evs, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The oversized event's slot is truncated JSON and skipped; the
	// in-memory ring still has it, and its neighbors survive on disk.
	kinds := map[string]bool{}
	for _, ev := range evs {
		kinds[ev.Kind] = true
	}
	if !kinds["small"] || !kinds["small2"] || kinds["big"] {
		t.Fatalf("recovered kinds = %v, want small+small2 without big", kinds)
	}
}

func TestFlightHandler(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.record("lease", time.Now(), appendArgs(nil, []KV{KN("row", 1)}))
	rr := httptest.NewRecorder()
	FlightHandler(fr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	evs, err := ReadFlightDump(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != "lease" {
		t.Fatalf("handler dump = %+v", evs)
	}
}

func BenchmarkFlightRecordFile(b *testing.B) {
	path := filepath.Join(b.TempDir(), "flight.ring")
	fr, err := OpenFlightRecorder(path, DefaultFlightSlots, DefaultFlightSlotSize)
	if err != nil {
		b.Fatal(err)
	}
	defer fr.Close()
	args := appendArgs(nil, []KV{KS("job", "job-000001"), KN("row", 17), KN("epoch", 3), KS("worker", "w0")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.record("lease", time.Now(), args)
	}
}
