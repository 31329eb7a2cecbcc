package durable

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"gpuscale/internal/fault"
)

// TestFrameMatchesReference pins the frame to the expression both
// formats rendered it with before they shared this package, and checks
// that Parse gives every payload back.
func TestFrameMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 1; n <= 4096; n += 1 + n/16 {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Uint32())
		}
		want := fmt.Sprintf("%08x %d %s\n", crc32.ChecksumIEEE(p), len(p), p)
		got := Frame(p)
		if string(got) != want {
			t.Fatalf("%d-byte payload framed as %q, want %q", n, got, want)
		}
		payload, next, reason := Parse(got, 0)
		if reason != "" || next != int64(len(got)) || !bytes.Equal(payload, p) {
			t.Fatalf("%d-byte payload: Parse = %d bytes, next %d, reason %q", n, len(payload), next, reason)
		}
	}
}

// TestParseTakesOnlyAppendFramesHeader: a header Parse would read as
// the same checksum and length, spelled otherwise than AppendFrame
// spells it, is refused, so an accepted frame re-frames to its own
// bytes.
func TestParseTakesOnlyAppendFramesHeader(t *testing.T) {
	p := []byte("payload")
	crc := crc32.ChecksumIEEE(p)
	for _, frame := range []string{
		fmt.Sprintf("%08X %d %s\n", crc, len(p), p),
		fmt.Sprintf("%08x +%d %s\n", crc, len(p), p),
		fmt.Sprintf("%08x 0%d %s\n", crc, len(p), p),
		fmt.Sprintf("%08x 0 \n", crc32.ChecksumIEEE(nil)),
	} {
		if payload, _, reason := Parse([]byte(frame), 0); reason == "" {
			t.Errorf("Parse(%q) accepted %q", frame, payload)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// TestLogTornAppendLeavesCleanPrefix: an append torn by the fault
// injector fails with its error and leaves the file at the clean
// prefix, and the next clean append lands right after that prefix.
func TestLogTornAppendLeavesCleanPrefix(t *testing.T) {
	const magic = "test-log v1\n"
	path := filepath.Join(t.TempDir(), "t.log")
	tear := false
	wrap := func(w io.Writer) io.Writer {
		torn := fault.Injector{TornWriteRate: 1, Seed: 3}.WrapWriter(w)
		return writerFunc(func(b []byte) (int, error) {
			if tear {
				return torn.Write(b)
			}
			return w.Write(b)
		})
	}
	l, image, torn, err := OpenLog(path, magic, []byte(magic), wrap)
	if err != nil || image != nil || torn != 0 {
		t.Fatalf("fresh log: image %q, torn %d, err %v", image, torn, err)
	}
	defer l.Close()
	want := []byte(magic)
	first := Frame([]byte(`{"n":1}`))
	if err := l.Append(first); err != nil {
		t.Fatal(err)
	}
	want = append(want, first...)
	tear = true
	for i := 0; i < 5; i++ {
		err := l.Append(Frame([]byte(fmt.Sprintf(`{"torn":%d}`, i))))
		if !errors.Is(err, fault.ErrTornWrite) {
			t.Fatalf("torn append %d returned %v, want ErrTornWrite", i, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Fatalf("torn append %d left %q, want the clean prefix %q", i, got, want)
		}
	}
	tear = false
	second := Frame([]byte(`{"n":2}`))
	if err := l.Append(second); err != nil {
		t.Fatal(err)
	}
	want = append(want, second...)
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatalf("clean append after torn ones left %q, want %q", got, want)
	}
	if got, err := l.Prefix(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Prefix = %q, %v; want %q", got, err, want)
	}
}

// TestLogRetriesATornHeader: a fresh log whose first write fails gets
// its header from the retry, and nothing of the failed write remains.
func TestLogRetriesATornHeader(t *testing.T) {
	const magic = "test-log v1\n"
	path := filepath.Join(t.TempDir(), "t.log")
	writes := 0
	wrap := func(w io.Writer) io.Writer {
		return writerFunc(func(b []byte) (int, error) {
			if writes++; writes == 1 {
				n, _ := w.Write(b[:len(b)/2])
				return n, fault.ErrTornWrite
			}
			return w.Write(b)
		})
	}
	l, image, torn, err := OpenLog(path, magic, []byte(magic), wrap)
	if err != nil || image != nil || torn != 0 {
		t.Fatalf("fresh log: image %q, torn %d, err %v", image, torn, err)
	}
	defer l.Close()
	if writes != 2 {
		t.Errorf("opening took %d writes, want the torn one and its retry", writes)
	}
	if got, err := l.Prefix(); err != nil || string(got) != magic {
		t.Errorf("Prefix = %q, %v; want the header %q", got, err, magic)
	}
	if got, _ := os.ReadFile(path); string(got) != magic {
		t.Errorf("file holds %q, want the header %q", got, magic)
	}
}

// TestLogHeaderFailureThatPersists: a header write that fails again on
// its retry fails the open and leaves the file empty.
func TestLogHeaderFailureThatPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.log")
	full := errors.New("no space left on device")
	writes := 0
	wrap := func(w io.Writer) io.Writer {
		return writerFunc(func(b []byte) (int, error) {
			writes++
			n, _ := w.Write(b[:1])
			return n, full
		})
	}
	if l, _, _, err := OpenLog(path, "test-log v1\n", []byte("test-log v1\n"), wrap); !errors.Is(err, full) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("OpenLog = %v, want %v", err, full)
	}
	if writes != 2 {
		t.Errorf("opening took %d writes, want one and its retry", writes)
	}
	if got, err := os.ReadFile(path); err != nil || len(got) != 0 {
		t.Errorf("file holds %q (%v), want it empty", got, err)
	}
}

// TestAppendFile: AppendFile lands its bytes after the file's own, and
// refuses a file that does not exist instead of creating it.
func TestAppendFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.log")
	if err := AppendFile(path, []byte("x")); err == nil {
		t.Fatal("AppendFile created a missing file")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused append left %s behind (%v)", path, err)
	}
	if err := WriteFile(path, Bytes([]byte("head\n"))); err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"one\n", "two\n"} {
		if err := AppendFile(path, []byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(path); string(got) != "head\none\ntwo\n" {
		t.Fatalf("appended file holds %q", got)
	}
}

// TestWriteFileFailureKeepsOldFile: a write callback that fails midway
// leaves the old file byte-identical and no temp file behind.
func TestWriteFileFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	old := []byte(`{"state":"old"}`)
	if err := WriteFile(path, Bytes(old)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte(`{"state":"ne`)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile returned %v, want the callback's error", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
		t.Fatalf("failed write changed the file to %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v after a failed write, want only state.json", names)
	}
}

// TestFileModeMatchesOpenFile: every durable file gets the mode a
// plain os.OpenFile(..., 0o644) sibling gets under the same umask.
func TestFileModeMatchesOpenFile(t *testing.T) {
	dir := t.TempDir()
	sibling, err := os.OpenFile(filepath.Join(dir, "sibling"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sibling.Close()
	want := mode(t, filepath.Join(dir, "sibling"))

	written := filepath.Join(dir, "written")
	if err := WriteFile(written, Bytes([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "log")
	l, _, _, err := OpenLog(logPath, "m\n", []byte("m\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range []string{written, logPath} {
		if got := mode(t, p); got != want {
			t.Fatalf("%s has mode %v, want %v", filepath.Base(p), got, want)
		}
	}
}

func mode(t *testing.T, path string) os.FileMode {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Mode()
}
