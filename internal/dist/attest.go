package dist

// The integrity plane's identity half: who is allowed to compute at
// all. Fail-stop faults (PRs 6-7) are survived by leases and
// journals; a byzantine worker — stale binary, miscompiled engine,
// bit-flipped memory — needs to be kept out (the handshake) or caught
// in the act (attestation + sampled re-verification, in
// coordinator.go).
//
// The handshake has two factors. ProtoVersion names the wire
// protocol, so a binary from before (or after) an incompatible
// protocol change is fenced with a typed 409 instead of computing
// rows the coordinator will misinterpret. EngineFingerprint goes
// deeper: it hashes the float64 bit patterns the local simulator
// engines actually produce on a fixed probe, so two binaries that
// speak the same protocol but compute different numbers — a stale
// build, a different rounding under a miscompile, a patched engine —
// disagree on the fingerprint and never mix rows in one matrix.
// Byte-identity of the job's journal with a single-node run is the
// repo's north star; the fingerprint is that invariant checked at
// admission time instead of after the job.

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// ProtoVersion names the lease protocol this binary speaks. Workers
// send it on every acquire; a mismatch — including the empty string a
// pre-attestation binary sends — is fenced with a typed 409 before
// any work is granted. /3 added coordinator terms to every lease,
// renew and complete: a /2 binary would drop the second fencing
// factor, so it must not mix rows with an HA fleet. /4 ships a
// complete's planes, and the replication stream's, packed where /3
// sent JSON arrays. /5 leases rows in batches: an acquire answers a
// list of leases, and renew and complete carry lists of rows, which a
// /4 binary cannot read. /6 attests a row with its journal v3 digest
// (sweep.RecordDigest over the packed planes), which a /5 binary
// computes over JSON and would never match.
const ProtoVersion = "gpuscale-dist/6"

var (
	fpOnce sync.Once
	fpVal  string
)

// EngineFingerprint returns a hex digest of what this binary's
// simulator engines compute: every engine family is evaluated on a
// fixed probe kernel at the corner configurations of the study space,
// and the exact float64 bit patterns are hashed together with
// ProtoVersion. Two processes share a fingerprint iff their engines
// are bit-for-bit interchangeable — the precondition for mixing their
// rows in one byte-identical matrix. Computed once per process; the
// probe costs a few engine evaluations.
func EngineFingerprint() string {
	fpOnce.Do(func() {
		h := fnv.New64a()
		io.WriteString(h, ProtoVersion)
		probe := kernel.New("dist", "attest", "fingerprint-probe").
			Geometry(192, 256).Compute(12000, 100).MustBuild()
		configs := []hw.Config{
			{CUs: hw.MinCUs, CoreClockMHz: 300, MemClockMHz: 150},
			{CUs: hw.MaxCUs, CoreClockMHz: 1000, MemClockMHz: 1250},
		}
		engines := []func(*kernel.Kernel, hw.Config) (gcn.Result, error){
			gcn.Simulate, gcn.SimulateDetailed, gcn.SimulatePipeline, gcn.SimulateWave,
		}
		for _, cfg := range configs {
			for _, eng := range engines {
				r, err := eng(probe, cfg)
				if err != nil {
					fmt.Fprintf(h, "|err=%v", err)
					continue
				}
				fmt.Fprintf(h, "|%016x|%016x|%d",
					math.Float64bits(r.Throughput), math.Float64bits(r.TimeNS), r.Bound)
			}
		}
		fpVal = fmt.Sprintf("%016x", h.Sum64())
	})
	return fpVal
}

// verifySelected reports whether a row is in the job's re-verification
// sample. The selection is a pure function of (job seed, row,
// fraction) — splitmix64 over seed and row, thresholded — so every
// coordinator restart, and every operator re-deriving the sample
// offline, picks exactly the same rows. fraction <= 0 selects
// nothing; >= 1 selects everything.
func verifySelected(seed int64, row int, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	s := uint64(seed)*0x9e3779b97f4a7c15 + uint64(row) + 0x9e3779b97f4a7c15
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	s *= 0x94d049bb133111eb
	s ^= s >> 31
	return float64(s>>11)/(1<<53) < fraction
}
