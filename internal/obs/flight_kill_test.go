//go:build unix

package obs

import (
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestFlightFileSurvivesKill9 records through a mapped ring in a child
// process that then SIGKILLs itself: every event it stored is in the
// file, with no Close, flush or fsync.
func TestFlightFileSurvivesKill9(t *testing.T) {
	if path := os.Getenv("GPUSCALE_FLIGHT_CHILD"); path != "" {
		fr, err := OpenFlightRecorder(path, 8, 256)
		if err != nil {
			os.Exit(2)
		}
		for i := 1; i <= 11; i++ {
			NewSink(nil, fr).Emit("lease", "dist", 0, SpanContext{}, "", time.Now(), 0, KN("row", float64(i)))
		}
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {}
	}
	path := filepath.Join(t.TempDir(), "flight.ring")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestFlightFileSurvivesKill9$")
	cmd.Env = append(os.Environ(), "GPUSCALE_FLIGHT_CHILD="+path)
	if err := cmd.Run(); err == nil {
		t.Fatal("child exited cleanly; want it killed")
	}
	evs, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 8 || evs[0].Seq != 4 || evs[7].Seq != 11 || evs[7].Args["row"] != 11.0 {
		t.Fatalf("after kill -9 the ring holds %+v", evs)
	}
}
