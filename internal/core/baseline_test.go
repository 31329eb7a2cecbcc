package core

import (
	"testing"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

func TestRooflineBaseline(t *testing.T) {
	hot := kernel.New("s", "p", "hot").Compute(50000, 0).
		Access(kernel.Streaming, 8, 2, 4).MustBuild()
	if got := RooflineBaseline(hot); got != BaselineCompute {
		t.Errorf("high-intensity kernel = %v, want compute", got)
	}
	cold := kernel.New("s", "p", "cold").Compute(100, 0).
		Access(kernel.Streaming, 256, 64, 4).MustBuild()
	if got := RooflineBaseline(cold); got != BaselineMemory {
		t.Errorf("low-intensity kernel = %v, want memory", got)
	}
	pure := kernel.New("s", "p", "pure").Access(kernel.Streaming, 0, 0, 0).MLP(0).MustBuild()
	if got := RooflineBaseline(pure); got != BaselineCompute {
		t.Errorf("pure-compute kernel = %v, want compute", got)
	}
}

func TestBaselineClassString(t *testing.T) {
	if BaselineCompute.String() != "compute" || BaselineMemory.String() != "memory" {
		t.Error("baseline class names wrong")
	}
}

func TestBaselineConfusion(t *testing.T) {
	space := hw.StudySpace()
	hot := kernel.New("s", "p", "hot").Compute(50000, 0).
		Access(kernel.Streaming, 8, 2, 4).MustBuild()
	cs := []Classification{
		{Kernel: hot.Name, Category: LatencyBound},
		{Kernel: hot.Name, Category: LatencyBound},
		{Kernel: "missing", Category: CompCoupled},
	}
	_ = space
	conf := BaselineConfusion(cs, map[string]*kernel.Kernel{hot.Name: hot})
	if conf[LatencyBound][BaselineCompute] != 2 {
		t.Fatalf("confusion = %v", conf)
	}
	if _, ok := conf[CompCoupled]; ok {
		t.Fatal("kernel missing from map still counted")
	}
}

func TestBaselineCannotExpressNonObviousClasses(t *testing.T) {
	// The demonstration the baseline experiment makes: a latency-bound
	// and a compute-coupled kernel can share a baseline class while the
	// taxonomy separates them.
	chase := kernel.New("s", "p", "chase").
		Geometry(2048, 64).
		Resources(32, 48, 64*1024).
		Compute(60000, 100).
		Access(kernel.PointerChase, 100, 0, 1).
		Coalescing(1).
		Locality(16<<20, 0, 0).
		MLP(1).DepChain(1).
		MustBuild()
	dense := kernel.New("s", "p", "dense").Compute(60000, 100).
		Access(kernel.Tiled, 100, 10, 4).MustBuild()
	if RooflineBaseline(chase) != RooflineBaseline(dense) {
		t.Fatalf("test premise broken: chase is %v and dense %v; pick parameters that share a baseline class",
			RooflineBaseline(chase), RooflineBaseline(dense))
	}
	// Same static class, different dynamic behaviour — the taxonomy's
	// value proposition. (The dynamic difference itself is asserted in
	// the integration tests.)
}
