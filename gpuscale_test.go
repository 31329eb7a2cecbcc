package gpuscale

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"gpuscale/internal/gcn"
)

func TestFacadeEndToEnd(t *testing.T) {
	space, err := NewSpace([]int{4, 24, 44}, []float64{200, 600, 1000}, []float64{150, 700, 1250})
	if err != nil {
		t.Fatal(err)
	}
	ks := []*Kernel{
		NewKernel("demo", "prog", "compute").Compute(30000, 100).MustBuild(),
		NewKernel("demo", "prog", "stream").Compute(200, 20).MustBuild(),
	}
	m, err := RunSweep(ks, space, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cs := Classify(m)
	if len(cs) != 2 {
		t.Fatalf("classified %d kernels, want 2", len(cs))
	}
	for _, c := range cs {
		if c.Category < CompCoupled || c.Category > Irregular {
			t.Errorf("%s: category %v out of range", c.Kernel, c.Category)
		}
	}
}

func TestFacadeSimulate(t *testing.T) {
	k := NewKernel("demo", "prog", "k").MustBuild()
	r, err := Simulate(k, ReferenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 {
		t.Fatalf("Throughput = %g", r.Throughput)
	}
	d, err := SimulateDetailed(k, ReferenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Throughput <= 0 {
		t.Fatalf("detailed Throughput = %g", d.Throughput)
	}
}

func TestFacadeCorpus(t *testing.T) {
	if got := len(Corpus()); got != 8 {
		t.Errorf("suites = %d, want 8", got)
	}
	if got := len(CorpusKernels()); got != 267 {
		t.Errorf("kernels = %d, want 267", got)
	}
	if got := StudySpace().Size(); got != 891 {
		t.Errorf("space size = %d, want 891", got)
	}
}

func TestFacadeStudy(t *testing.T) {
	s, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TableR3().String(); !strings.Contains(got, "cu-intolerant") {
		t.Errorf("study table malformed:\n%s", got)
	}
}

func TestFacadeSurfaces(t *testing.T) {
	space, err := NewSpace([]int{4, 44}, []float64{200, 1000}, []float64{150, 1250})
	if err != nil {
		t.Fatal(err)
	}
	ks := []*Kernel{NewKernel("d", "p", "k").MustBuild()}
	m, err := RunSweep(ks, space, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ss := Surfaces(m)
	if len(ss) != 1 || ss[0].Kernel != "p.k" {
		t.Fatalf("Surfaces = %+v", ss)
	}
	c := ClassifySurface(ss[0])
	if c.Kernel != "p.k" {
		t.Fatalf("ClassifySurface kernel = %q", c.Kernel)
	}
}

// TestFaultToleranceAcceptance is the resilience acceptance criterion:
// a full-corpus sweep under a 5% transient fault rate with 3 retries
// completes with zero failed cells at a fixed seed and reproduces the
// fault-free measurements exactly, while the same fault storm with
// retries disabled yields a partial matrix whose holes are marked in
// Status and whose fully covered kernels classify byte-identically to
// a fault-free run.
func TestFaultToleranceAcceptance(t *testing.T) {
	ks := CorpusKernels()
	space := StudySpace()
	clean, err := RunSweep(ks, space, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// With retries: every cell recovers.
	in := FaultInjector{ErrorRate: 0.05, Seed: 4}
	recovered, rep, err := RunSweepContext(context.Background(), ks, space,
		SweepOptions{Row: in.WrapRow(gcn.RoundRow), Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("retried sweep left %d/%d cells failed; first: %s",
			rep.Failed, rep.Cells, rep.Failures[0])
	}
	if rep.Retries == 0 {
		t.Fatal("5% fault rate consumed no retries; injector inactive?")
	}
	if !reflect.DeepEqual(recovered.Throughput, clean.Throughput) {
		t.Fatal("recovered matrix differs from fault-free sweep")
	}

	// Without retries: graceful degradation to a partial matrix. A
	// lower rate here keeps a mix of fully covered and holed rows —
	// at 5% per cell no 891-cell row would ever survive intact.
	in2 := FaultInjector{ErrorRate: 0.001, Seed: 4}
	partial, rep2, err := RunSweepContext(context.Background(), ks, space,
		SweepOptions{Row: in2.WrapRow(gcn.RoundRow)})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Failed == 0 {
		t.Fatal("no-retry fault sweep failed nothing; acceptance vacuous")
	}
	marked := 0
	for r := range partial.Kernels {
		for c := range partial.Status[r] {
			if partial.Status[r][c] == CellFailed {
				marked++
			}
		}
	}
	if marked != rep2.Failed {
		t.Fatalf("report says %d failed cells, Status plane marks %d", rep2.Failed, marked)
	}
	cleanCS := Classify(clean)
	partialCS := Classify(partial)
	covered := 0
	for i := range ks {
		if !partial.RowComplete(i) {
			if partialCS[i].Coverage >= 1 {
				t.Fatalf("incomplete kernel %s reports full coverage", ks[i].Name)
			}
			continue
		}
		covered++
		if !reflect.DeepEqual(cleanCS[i], partialCS[i]) {
			t.Fatalf("fully covered kernel %s classified differently under faults:\nclean   %+v\npartial %+v",
				ks[i].Name, cleanCS[i], partialCS[i])
		}
	}
	if covered == 0 || covered == len(ks) {
		t.Fatalf("covered kernels = %d/%d; need a real mix for the property to bite", covered, len(ks))
	}
}
