package trace

import (
	"testing"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/memory"
)

func traceKernel(ws int64, shared, reuse float64, p kernel.AccessPattern) *kernel.Kernel {
	return kernel.New("s", "p", "k").
		Access(p, 256, 64, 4).
		Locality(ws, shared, reuse).
		MustBuild()
}

func TestWorkgroupStreamDeterministic(t *testing.T) {
	k := traceKernel(64*1024, 0.3, 2, kernel.Gather)
	a := NewGenerator(k, 42).WorkgroupStream(3)
	b := NewGenerator(k, 42).WorkgroupStream(3)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stream lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestWorkgroupStreamLength(t *testing.T) {
	k := traceKernel(64*1024, 0, 0, kernel.Streaming)
	got := NewGenerator(k, 1).WorkgroupStream(0)
	want := k.MemAccessesPerWave() * k.WavesPerWG()
	if len(got) != want {
		t.Fatalf("stream length = %d, want %d", len(got), want)
	}
}

func TestWorkgroupStreamEmptyForPureCompute(t *testing.T) {
	k := kernel.New("s", "p", "k").Access(kernel.Streaming, 0, 0, 0).MLP(0).MustBuild()
	if got := NewGenerator(k, 1).WorkgroupStream(0); got != nil {
		t.Fatalf("pure compute stream = %d accesses, want none", len(got))
	}
}

func TestPrivateRegionsDisjoint(t *testing.T) {
	k := traceKernel(32*1024, 0, 0, kernel.Streaming)
	g := NewGenerator(k, 1)
	s0 := g.WorkgroupStream(0)
	s1 := g.WorkgroupStream(1)
	max0 := uint64(0)
	for _, a := range s0 {
		if a > max0 {
			max0 = a
		}
	}
	for _, a := range s1 {
		if a <= max0 {
			t.Fatalf("workgroup 1 address %d overlaps workgroup 0 region (max %d)", a, max0)
		}
	}
}

func TestSharedRegionOverlaps(t *testing.T) {
	k := traceKernel(32*1024, 1, 0, kernel.Streaming)
	g := NewGenerator(k, 1)
	s0 := NewGenerator(k, 1).WorkgroupStream(0)
	s1 := g.WorkgroupStream(1)
	seen := map[uint64]bool{}
	for _, a := range s0 {
		seen[a] = true
	}
	overlap := 0
	for _, a := range s1 {
		if seen[a] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatal("fully shared kernels produced disjoint streams")
	}
}

func TestReplayStreamingReuseHits(t *testing.T) {
	// A small, heavily reused working set must show strong L1 hits.
	k := traceKernel(8*1024, 0, 4, kernel.Streaming)
	r, err := Replay(k, 1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.L1 < 0.5 {
		t.Fatalf("reused 8 KiB set L1 hit rate = %.3f, want > 0.5", r.L1)
	}
}

func TestReplayThrashingLowHits(t *testing.T) {
	// A 4 MiB gather working set per workgroup on many CUs must
	// overwhelm both levels.
	k := traceKernel(4<<20, 0, 1, kernel.Gather)
	r, err := Replay(k, 2, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.L1 > 0.2 {
		t.Fatalf("thrashing L1 hit rate = %.3f, want < 0.2", r.L1)
	}
	if r.L2 > 0.3 {
		t.Fatalf("thrashing L2 hit rate = %.3f, want < 0.3", r.L2)
	}
}

func TestReplayL2FallsWithCUs(t *testing.T) {
	// Trace-level confirmation of the CU-intolerance mechanism the
	// analytic model encodes: per-pass footprints of 128 KiB per
	// workgroup fit the 1 MiB L2 at 2 CUs (passes 2..4 hit) but
	// thrash it at 16 CUs.
	k := kernel.New("s", "p", "k").
		Access(kernel.Streaming, 2048, 0, 4).
		Locality(128*1024, 0, 3).
		MustBuild()
	lo, err := Replay(k, 1, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Replay(k, 1, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if hi.L2 >= lo.L2 {
		t.Fatalf("L2 hit rate did not fall with CUs: 2 CUs %.3f vs 16 CUs %.3f", lo.L2, hi.L2)
	}
}

func TestReplayValidatesShape(t *testing.T) {
	k := traceKernel(1024, 0, 0, kernel.Streaming)
	if _, err := Replay(k, 0, 1, 1); err == nil {
		t.Error("Replay(0 WGs) succeeded")
	}
	if _, err := Replay(k, 1, 0, 1); err == nil {
		t.Error("Replay(0 CUs) succeeded")
	}
}

func TestAnalyticModelTracksTraceDirection(t *testing.T) {
	// The analytic estimate need not match the trace numerically, but
	// it must agree on direction: when the trace says configuration A
	// has a clearly better L2 hit rate than B, the model must too.
	kFits := traceKernel(16*1024, 0, 3, kernel.Streaming)
	kThrash := traceKernel(2<<20, 0, 3, kernel.Gather)

	tFits, err := Replay(kFits, 1, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	tThrash, err := Replay(kThrash, 1, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	aFits := memory.EstimateHitRates(kFits, 1, 4)
	aThrash := memory.EstimateHitRates(kThrash, 1, 4)

	if !(tFits.L1 > tThrash.L1) {
		t.Fatalf("test premise broken: the trace did not separate the cases (%.3f vs %.3f)", tFits.L1, tThrash.L1)
	}
	if !(aFits.L1 > aThrash.L1) {
		t.Fatalf("analytic model disagrees with trace direction: fits %.3f vs thrash %.3f",
			aFits.L1, aThrash.L1)
	}
}

func TestStreamAddressesLineAligned(t *testing.T) {
	for _, p := range []kernel.AccessPattern{
		kernel.Streaming, kernel.Tiled, kernel.Strided, kernel.Gather, kernel.PointerChase,
	} {
		k := traceKernel(64*1024, 0.2, 1, p)
		for _, a := range NewGenerator(k, 3).WorkgroupStream(0) {
			if a%hw.L2LineBytes != 0 {
				t.Fatalf("pattern %v produced unaligned address %d", p, a)
			}
		}
	}
}
