package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// probeRef is the median hostProbe time on the 2-vCPU host the first
// baseline was measured on. Scaling a time by probeRef over the run's
// own probe median states it at that host's speed.
const probeRef = 8.5e-3

// probeEvery is the least window time between two probes.
const probeEvery = 250 * time.Millisecond

var (
	probeData = make([]byte, 4<<20)
	probeSink byte
)

// hostProbe times a fixed piece of CPU and memory work that uses no
// code of the repository, so no change to the program under test can
// move it: sorting 2^16 seeded pseudo-random integers and hashing 4 MiB.
// On a shared host its time follows the host's speed, which drifts by
// tens of percent over minutes.
func hostProbe() float64 {
	t0 := time.Now()
	r := rand.New(rand.NewSource(1))
	xs := make([]int, 1<<16)
	for i := range xs {
		xs[i] = r.Int()
	}
	sort.Ints(xs)
	sum := sha256.Sum256(probeData)
	probeSink += sum[0] + byte(xs[0])
	return time.Since(t0).Seconds()
}
