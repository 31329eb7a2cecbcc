//go:build unix

package obs

import (
	"os"
	"syscall"
)

// mapFlightFile maps size bytes of the flight file shared, so a record
// is a plain store into the page cache: no system call per event, and
// a kill -9 still leaves every completed store in the file.
func mapFlightFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func unmapFlightFile(b []byte) error { return syscall.Munmap(b) }
