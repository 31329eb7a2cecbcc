// Package durable is how gpuscale makes a file survive a crash. The
// sweep journal and the lease ledger share one record frame, which the
// fleet's wire bodies use too,
//
//	<crc32:8-hex> <len:decimal> <payload>\n
//
// where the CRC32 (IEEE) covers the payload bytes only; both append
// frames to a Log behind their own magic header, one write and one
// fsync per append of one or more records; and every other state file is replaced whole with
// WriteFile. A replica of such a file takes the same two operations:
// WriteFile for a whole copy, AppendFile for the next bytes. What a
// payload means — its decoding, its validation and
// what a salvaged tail costs — stays with each format.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// FrameOverhead is the most a frame adds to its payload: the CRC, the
// length, the two spaces after them and the newline.
const FrameOverhead = 8 + 1 + 10 + 1 + 1

// Frame returns payload wrapped in its frame.
func Frame(payload []byte) []byte {
	return AppendFrame(make([]byte, 0, len(payload)+FrameOverhead), payload)
}

// AppendFrame appends payload's frame to b, so several records can
// land in one Append.
func AppendFrame(b, payload []byte) []byte {
	b = fmt.Appendf(b, "%08x %d ", crc32.ChecksumIEEE(payload), len(payload))
	b = append(b, payload...)
	return append(b, '\n')
}

// Parse reads the frame that starts at data[off]. It returns the
// payload and the offset just past the frame's newline or, when the
// bytes there are not one whole frame whose checksum holds, a reason
// and nothing else. A salvage scan parses frame after frame and keeps
// the clean prefix before the first one that fails, so a torn tail
// costs only the record that was being written.
func Parse(data []byte, off int64) (payload []byte, next int64, reason string) {
	rest := data[off:]
	crc, start, n, reason := header(rest)
	if reason != "" {
		return nil, 0, reason
	}
	if start+n+1 > int64(len(rest)) {
		return nil, 0, "torn record"
	}
	if rest[start+n] != '\n' {
		return nil, 0, "bad record framing"
	}
	payload = rest[start : start+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, "record checksum mismatch"
	}
	return payload, off + start + n + 1, ""
}

// FrameSize reads the header of the frame b begins with and returns
// the frame's whole length in bytes, newline included, or ok false when
// b does not begin with a frame header: how much a reader must hold of
// a frame before Parse can judge it.
func FrameSize(b []byte) (size int64, ok bool) {
	_, start, n, reason := header(b)
	return start + n + 1, reason == ""
}

// header reads the frame header b begins with: the payload's CRC, and
// its offset and length; reason is non-empty when b does not begin
// with one. Only the header AppendFrame writes is one — lower-case hex,
// a decimal length with no sign or leading zero — so a payload has one
// frame, byte for byte.
func header(b []byte) (crc uint32, start, n int64, reason string) {
	if bytes.IndexByte(b, ' ') != 8 {
		return 0, 0, 0, "bad record framing"
	}
	c, err := strconv.ParseUint(string(b[:8]), 16, 32)
	if err != nil || bytes.ContainsAny(b[:8], "ABCDEF") {
		return 0, 0, 0, "bad record checksum field"
	}
	sp := bytes.IndexByte(b[9:], ' ')
	if sp <= 0 || sp > 10 {
		return 0, 0, 0, "bad record framing"
	}
	n, err = strconv.ParseInt(string(b[9:9+sp]), 10, 32)
	if err != nil || n <= 0 || b[9] < '1' || b[9] > '9' {
		return 0, 0, 0, "bad record length field"
	}
	return uint32(c), int64(9 + sp + 1), n, ""
}

// Log is an append-only file behind a magic header. Each append is
// one write and one fsync, and a failed append leaves no trace: the
// file is cut back to its clean prefix. Not safe for concurrent use.
type Log struct {
	header []byte
	f      *os.File
	w      io.Writer // writes to f, possibly wrapped for fault injection
	good   int64     // the clean prefix: every byte the log has acked
}

// OpenLog opens or creates the log at path. A file that is empty, or
// that holds a torn prefix of magic (a crash while it was created),
// gets a fresh header — header, which begins with magic — and torn is
// how many bytes that dropped. Any other file comes back whole as
// image: the caller scans it and calls Cut with its clean prefix or,
// for bytes that are not its format, refuses the file. wrap, if
// non-nil, wraps the log's *os.File, and every append goes through
// the writer it returns.
func OpenLog(path, magic string, header []byte, wrap func(io.Writer) io.Writer) (l *Log, image []byte, torn int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	l = &Log{header: header, f: f, w: f}
	if wrap != nil {
		l.w = wrap(f)
	}
	image, err = io.ReadAll(f)
	l.good = int64(len(image))
	if err == nil && len(image) < len(magic) && strings.HasPrefix(magic, string(image)) {
		torn, image = l.good, nil
		err = l.Reset()
	}
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return l, image, torn, nil
}

// Append writes b after the clean prefix in one write and fsyncs it
// before returning. On any failure, a short (torn) write included, the
// file is cut back to the clean prefix.
func (l *Log) Append(b []byte) error {
	if _, err := l.f.Seek(l.good, io.SeekStart); err != nil {
		return err
	}
	n, err := l.w.Write(b)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		// Best effort: if the cut fails too, the next append still
		// lands at the clean prefix and overwrites the partial bytes.
		l.f.Truncate(l.good)
		l.f.Sync()
		return err
	}
	l.good += int64(len(b))
	return nil
}

// AppendFile appends b to the existing file at path as Log.Append
// does — one write and one fsync, and on any failure the file is cut
// back to what it held before — and closes it again, so a caller that
// appends to many files holds none of them open.
func AppendFile(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	l := &Log{f: f, w: f}
	if l.good, err = f.Seek(0, io.SeekEnd); err == nil {
		err = l.Append(b)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Cut truncates the log to good, the clean prefix a scan of its image
// accepted, and fsyncs the cut; the next append lands at good.
func (l *Log) Cut(good int64) error {
	if err := l.f.Truncate(good); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.good = good
	return nil
}

// Reset empties the log and writes its header afresh. The header's
// fsync makes the truncation durable too. A failed header write has
// been cut back to the empty file, and nothing was acked yet, so it is
// tried once more: a torn write costs nothing, while a failure that
// persists (a full disk) still fails the reset.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.good = 0
	if err := l.Append(l.header); err == nil {
		return nil
	}
	return l.Append(l.header)
}

// Prefix reads back the clean prefix: the header and every acked
// append.
func (l *Log) Prefix() ([]byte, error) {
	b := make([]byte, l.good)
	if _, err := l.f.ReadAt(b, 0); err != nil {
		return nil, err
	}
	return b, nil
}

// Close closes the log's file.
func (l *Log) Close() error { return l.f.Close() }

// WriteFile replaces the file at path with what write streams into
// it, atomically: the bytes go to a temp file in the same directory,
// which is fsynced and renamed over path, and then the directory is
// fsynced so the rename itself survives a crash. Readers see the old
// file or the whole new one. On failure the old file is untouched and
// the temp file is gone. The new file's mode is 0644 less the umask,
// as os.Create gives.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := createTemp(path)
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // fails harmlessly once the rename happened
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		return err
	}
	// Best effort: some filesystems refuse to fsync a directory.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Bytes is a WriteFile callback that writes b.
func Bytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// createTemp creates a new file beside path, as os.CreateTemp does but
// with os.Create's mode.
func createTemp(path string) (f *os.File, err error) {
	for try := 0; try < 10; try++ {
		f, err = os.OpenFile(path+".tmp"+strconv.FormatUint(rand.Uint64(), 36), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if !errors.Is(err, fs.ErrExist) {
			break
		}
	}
	return f, err
}
