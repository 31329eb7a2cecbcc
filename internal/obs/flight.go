package obs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// FlightRecorder is the crash flight recorder: a fixed-size ring of
// recent structured control-plane events (lease transitions, retries,
// breaker trips, shed decisions) that answers "what was this process
// doing just before it died?" — the question journals (state-only)
// cannot, because they record what was durably decided, not what was
// in flight.
//
// Two backings share one API:
//
//   - In-memory (NewFlightRecorder): events live in the ring until
//     someone dumps them — on panic, on SIGQUIT, or over HTTP.
//   - File-backed (OpenFlightRecorder): every event also overwrites
//     one fixed-size CRC-framed slot in a preallocated file, with no
//     fsync: a store into the file's shared memory mapping, or a
//     pwrite where the platform cannot map it. The kernel's page cache
//     makes the slots survive kill -9 — the process dies, the dirty
//     pages don't — which is exactly the black-box semantics the name
//     promises. Only machine loss loses the ring. A torn slot (kill
//     mid-store) fails its CRC and is skipped at recovery, like
//     journal v2's torn tail.
//
// Events reach the ring through the process's Sink, so the ring and
// the trace record the same events under the same names. Recording is
// mutex-serialized and does one small JSON encode, into the slot's
// reused buffer, plus (for the file backing) one slot store; events
// are row- and control-plane-rate (rows, leases, sheds, retries),
// never one per cell. With the mapping, an event costs no system call,
// which is what keeps a traced sweep within its budget on the round
// engine, where a whole row takes tens of microseconds.
type FlightRecorder struct {
	mu sync.Mutex
	// ring holds each slot's encoded FlightEvent JSON, the same bytes
	// the file backing writes.
	ring [][]byte
	next uint64 // total events ever recorded; ring index = (next-1) % len

	f        *os.File // nil for the in-memory backing
	slotSize int
	// mapped is the whole file mapped shared into memory, or nil where
	// the platform cannot map it; then buf (len slotSize) stages each
	// slot for its pwrite.
	mapped []byte
	buf    []byte
}

// FlightEvent is one recorded moment.
type FlightEvent struct {
	// Seq is the global sequence number (1-based); recovery orders by
	// it.
	Seq uint64 `json:"seq"`
	// TimeNS is the wall-clock time of the event in Unix nanoseconds.
	// Wall, not monotonic: dumps are read by humans correlating
	// processes, and the ring survives the process whose monotonic
	// clock defined it.
	TimeNS int64 `json:"t"`
	// Kind is the event's name, the same one its trace line carries
	// ("lease", "steal", "complete", "fence", "shed", "attempt",
	// "row", ...).
	Kind string `json:"kind"`
	// Args carries the event payload (job, row, epoch, worker, ...).
	Args map[string]any `json:"args,omitempty"`
}

// Flight-file layout: a 24-byte header, then slotCount slots of
// slotSize bytes. Each slot: u64 seq, u32 payload length, u32
// CRC32(payload), payload (JSON FlightEvent). All little-endian.
const (
	flightMagic      = "GPUFLT01"
	flightHeaderSize = 24
	flightSlotHeader = 16
	// DefaultFlightSlots and DefaultFlightSlotSize size the ring when
	// callers pass zero: 512 events x 1KiB = a 512KiB black box.
	DefaultFlightSlots    = 512
	DefaultFlightSlotSize = 1024
)

// NewFlightRecorder returns an in-memory recorder holding the last
// `slots` events (DefaultFlightSlots when <= 0).
func NewFlightRecorder(slots int) *FlightRecorder {
	if slots <= 0 {
		slots = DefaultFlightSlots
	}
	return &FlightRecorder{ring: make([][]byte, slots)}
}

// OpenFlightRecorder returns a file-backed recorder at path,
// truncating any previous ring there (recover it first with
// ReadFlightFile if it matters). slots/slotSize <= 0 use the
// defaults. The file is fully preallocated so a Record never needs to
// grow it.
func OpenFlightRecorder(path string, slots, slotSize int) (*FlightRecorder, error) {
	if slots <= 0 {
		slots = DefaultFlightSlots
	}
	if slotSize <= 0 {
		slotSize = DefaultFlightSlotSize
	}
	if slotSize < flightSlotHeader+2 {
		return nil, fmt.Errorf("obs: flight slot size %d too small", slotSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: opening flight file: %w", err)
	}
	hdr := make([]byte, flightHeaderSize)
	copy(hdr, flightMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(slotSize))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(slots))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: writing flight header: %w", err)
	}
	if err := f.Truncate(int64(flightHeaderSize + slots*slotSize)); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: sizing flight file: %w", err)
	}
	fr := &FlightRecorder{ring: make([][]byte, slots), f: f, slotSize: slotSize}
	if fr.mapped, err = mapFlightFile(f, flightHeaderSize+slots*slotSize); err != nil || fr.mapped == nil {
		fr.mapped, fr.buf = nil, make([]byte, slotSize)
	}
	return fr, nil
}

// record appends one event that happened at t to the ring (and its
// file slot, when file-backed); args is the event's encoded arguments
// object (appendArgs), or empty. Safe for concurrent use; never fails
// — a write error on the file backing degrades that slot to its CRC
// check, it does not lose the in-memory copy.
func (fr *FlightRecorder) record(kind string, t time.Time, args []byte) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.next++
	i := int((fr.next - 1) % uint64(len(fr.ring)))
	b := append(fr.ring[i][:0], `{"seq":`...)
	b = strconv.AppendUint(b, fr.next, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, t.UnixNano(), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, kind)
	if len(args) > 0 {
		b = append(b, `,"args":`...)
		b = append(b, args...)
	}
	b = append(b, '}')
	fr.ring[i] = b
	if fr.f == nil {
		return
	}
	payload := b
	if len(payload) > fr.slotSize-flightSlotHeader {
		payload = payload[:fr.slotSize-flightSlotHeader] // oversized events degrade to torn slots
	}
	off := flightHeaderSize + i*fr.slotSize
	slot := fr.buf
	if fr.mapped != nil {
		slot = fr.mapped[off : off+fr.slotSize]
	}
	binary.LittleEndian.PutUint64(slot[0:], fr.next)
	binary.LittleEndian.PutUint32(slot[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(slot[12:], crc32.ChecksumIEEE(payload))
	// Bytes past the payload are a previous event's leftovers; the
	// length in the header excludes them.
	n := flightSlotHeader + copy(slot[flightSlotHeader:], payload)
	if fr.mapped == nil {
		// Deliberately no fsync: the page cache IS the durability model.
		fr.f.WriteAt(slot[:n], int64(off))
	}
}

// payloads returns copies of the ring's encoded events, oldest first.
func (fr *FlightRecorder) payloads() [][]byte {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	n := fr.next
	cap64 := uint64(len(fr.ring))
	count := min(n, cap64)
	out := make([][]byte, 0, count)
	for seq := n - count + 1; seq <= n; seq++ {
		out = append(out, append([]byte(nil), fr.ring[int((seq-1)%cap64)]...))
	}
	return out
}

// Events returns the ring's current contents, oldest first.
func (fr *FlightRecorder) Events() []FlightEvent {
	var out []FlightEvent
	for _, p := range fr.payloads() {
		var ev FlightEvent
		if err := json.Unmarshal(p, &ev); err == nil {
			out = append(out, ev)
		}
	}
	return out
}

// WriteDump renders the ring as JSONL, oldest first, prefixed with
// one header object ({"flight_dump":...}) identifying the dump.
func (fr *FlightRecorder) WriteDump(w io.Writer, reason string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{
		"flight_dump": reason,
		"pid":         os.Getpid(),
		"t":           time.Now().UnixNano(),
	}); err != nil {
		return err
	}
	for _, p := range fr.payloads() {
		if _, err := bw.Write(append(p, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpToFile writes a dump to path (atomically enough for a crash
// handler: create, write, sync, close).
func (fr *FlightRecorder) DumpToFile(path, reason string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fr.WriteDump(f, reason); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Close closes the file backing, if any. The on-disk ring remains
// readable via ReadFlightFile.
func (fr *FlightRecorder) Close() error {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.f == nil {
		return nil
	}
	var err error
	if fr.mapped != nil {
		err = unmapFlightFile(fr.mapped)
		fr.mapped = nil
	}
	if cerr := fr.f.Close(); err == nil {
		err = cerr
	}
	fr.f = nil
	return err
}

// ReadFlightFile recovers the events a file-backed recorder left
// behind — typically after the process was kill -9'd. Slots that are
// empty, torn (CRC mismatch) or out of range are skipped; survivors
// are returned oldest first.
func ReadFlightFile(path string) ([]FlightEvent, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < flightHeaderSize || string(b[:8]) != flightMagic {
		return nil, fmt.Errorf("obs: %s is not a flight file", path)
	}
	slotSize := int(binary.LittleEndian.Uint32(b[8:]))
	slots := int(binary.LittleEndian.Uint32(b[12:]))
	if slotSize < flightSlotHeader+2 || slots <= 0 || slots > 1<<20 {
		return nil, fmt.Errorf("obs: %s has an implausible flight geometry (%d x %d)", path, slots, slotSize)
	}
	var out []FlightEvent
	for i := 0; i < slots; i++ {
		off := flightHeaderSize + i*slotSize
		if off+flightSlotHeader > len(b) {
			break
		}
		slot := b[off:min(off+slotSize, len(b))]
		seq := binary.LittleEndian.Uint64(slot[0:])
		n := int(binary.LittleEndian.Uint32(slot[8:]))
		crc := binary.LittleEndian.Uint32(slot[12:])
		if seq == 0 || n <= 0 || n > len(slot)-flightSlotHeader {
			continue
		}
		payload := slot[flightSlotHeader : flightSlotHeader+n]
		if crc32.ChecksumIEEE(payload) != crc {
			continue // torn slot: the kill landed mid-pwrite
		}
		var ev FlightEvent
		if err := json.Unmarshal(payload, &ev); err != nil || ev.Seq != seq {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// ReadFlightDump parses a WriteDump stream back into events, skipping
// the header object.
func ReadFlightDump(r io.Reader) ([]FlightEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []FlightEvent
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if line == 1 {
			var hdr map[string]any
			if err := json.Unmarshal(b, &hdr); err == nil {
				if _, ok := hdr["flight_dump"]; ok {
					continue
				}
			}
		}
		var ev FlightEvent
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: flight dump line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
