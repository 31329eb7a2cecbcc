package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/sweep"
)

func partialSpace(t *testing.T) hw.Space {
	t.Helper()
	s, err := hw.NewSpace([]int{4, 24, 44}, []float64{200, 600, 1000}, []float64{150, 700, 1250})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func partialKernels() []*kernel.Kernel {
	return []*kernel.Kernel{
		kernel.New("s", "p", "a").Geometry(512, 256).MustBuild(),
		kernel.New("s", "p", "b").Geometry(512, 256).Compute(30000, 100).MustBuild(),
		kernel.New("s", "p", "c").Geometry(64, 256).MustBuild(),
		kernel.New("s", "p", "d").Geometry(2048, 256).Access(kernel.Streaming, 64, 8, 4).MustBuild(),
	}
}

// downEngine is the round row engine with one kernel's device lost:
// every cell of that kernel's row fails.
type downEngine struct{ bad string }

func (e downEngine) PrepareRow(k *kernel.Kernel) (gcn.PreparedRow, error) {
	pr, err := gcn.RoundRow.PrepareRow(k)
	if err != nil || k.Name != e.bad {
		return pr, err
	}
	return downRow{pr}, nil
}

type downRow struct{ gcn.PreparedRow }

func (downRow) EvalBatch(cfgs []hw.Config, out []gcn.Result, errs []error) error {
	for i := range cfgs {
		out[i], errs[i] = gcn.Result{}, errors.New("device lost")
	}
	return nil
}

func TestSurfacesMaskFailedCells(t *testing.T) {
	space := partialSpace(t)
	in := fault.Injector{ErrorRate: 0.3, Seed: 21}
	m, rep, err := sweep.RunContext(context.Background(), partialKernels(), space,
		sweep.Options{Row: in.WrapRow(gcn.RoundRow)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("fault storm failed nothing; test needs holes")
	}
	for i, s := range Surfaces(m) {
		if m.RowComplete(i) {
			if s.Valid != nil {
				t.Fatalf("complete row %d got a mask", i)
			}
			if s.Coverage() != 1 {
				t.Fatalf("complete row %d coverage %g", i, s.Coverage())
			}
			continue
		}
		if s.Valid == nil {
			t.Fatalf("incomplete row %d has no mask", i)
		}
		if c := s.Coverage(); c >= 1 || c <= 0 {
			t.Fatalf("incomplete row %d coverage %g outside (0,1)", i, c)
		}
		for c, ok := range s.Valid {
			if ok != m.CellOK(i, c) {
				t.Fatalf("mask disagrees with status at (%d,%d)", i, c)
			}
		}
	}
}

// TestSurfacesMaskQuarantinedCells: cells the circuit breaker
// quarantined are untrusted exactly like failed ones, and a mostly
// quarantined row classifies LowCoverage instead of guessing.
func TestSurfacesMaskQuarantinedCells(t *testing.T) {
	space := partialSpace(t)
	ks := partialKernels()
	bad := ks[1].Name
	opts := sweep.Options{Breaker: 3, Row: downEngine{bad}}
	m, rep, err := sweep.RunContext(context.Background(), ks, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined == 0 || rep.BreakerTrips != 1 {
		t.Fatalf("breaker drill produced no quarantine: %s", rep.Summary())
	}
	row := m.Row(bad)
	s := Surfaces(m)[row]
	if s.Valid == nil {
		t.Fatal("quarantined row has no mask")
	}
	masked := 0
	for c, ok := range s.Valid {
		if m.Status[row][c] == sweep.StatusQuarantined && ok {
			t.Fatalf("quarantined cell %d trusted by the surface mask", c)
		}
		if !ok {
			masked++
		}
	}
	if masked != space.Size() {
		t.Fatalf("masked %d cells, want the whole broken row (%d)", masked, space.Size())
	}
	got := DefaultClassifier().Classify(s)
	if got.Category != LowCoverage {
		t.Fatalf("quarantined row classified %s, want low-coverage", got.Category)
	}
}

func TestMarginalMasksInvalidPoints(t *testing.T) {
	space := partialSpace(t)
	m, err := sweep.Run(partialKernels()[:1], space, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromMatrix(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := s.Marginal(AxisCU)
	if len(full.Curve) != 3 {
		t.Fatalf("unmasked CU curve has %d points, want 3", len(full.Curve))
	}
	// Mask the middle CU point on the marginal path (top clocks).
	nF, nM := len(space.CoreClocksMHz), len(space.MemClocksMHz)
	masked := s
	masked.Valid = make([]bool, len(s.Throughput))
	for i := range masked.Valid {
		masked.Valid[i] = true
	}
	masked.Valid[(1*nF+(nF-1))*nM+(nM-1)] = false
	got := masked.Marginal(AxisCU)
	if len(got.Curve) != 2 {
		t.Fatalf("masked CU curve has %d points, want 2", len(got.Curve))
	}
	if got.Settings[0] != 4 || got.Settings[1] != 44 {
		t.Fatalf("masked settings %v, want [4 44]", got.Settings)
	}
	// The other two axes are untouched by that mask.
	if !reflect.DeepEqual(masked.Marginal(AxisCoreClock), s.Marginal(AxisCoreClock)) {
		t.Fatal("core-clock marginal changed by an off-path mask")
	}
}

func TestClassifyLowCoverage(t *testing.T) {
	space := partialSpace(t)
	m, err := sweep.Run(partialKernels()[:1], space, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromMatrix(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := DefaultClassifier()
	clean := cl.Classify(s)
	if clean.Category == LowCoverage {
		t.Fatal("fault-free surface classified LowCoverage")
	}
	if clean.Coverage != 1 {
		t.Fatalf("fault-free coverage %g", clean.Coverage)
	}

	// Drop 20% of cells: below the default 0.9 MinCoverage.
	sparse := s
	sparse.Valid = make([]bool, len(s.Throughput))
	for i := range sparse.Valid {
		sparse.Valid[i] = i%5 != 0
	}
	got := cl.Classify(sparse)
	if got.Category != LowCoverage {
		t.Fatalf("80%% coverage classified %v, want low-coverage", got.Category)
	}
	if got.Coverage >= 0.9 {
		t.Fatalf("coverage %g not below threshold", got.Coverage)
	}

	// A marginal curve reduced below two points is unclassifiable even
	// if overall coverage is high.
	nF, nM := len(space.CoreClocksMHz), len(space.MemClocksMHz)
	thin := s
	thin.Valid = make([]bool, len(s.Throughput))
	for i := range thin.Valid {
		thin.Valid[i] = true
	}
	for i := 0; i < len(space.CUCounts)-1; i++ {
		thin.Valid[(i*nF+(nF-1))*nM+(nM-1)] = false
	}
	loose, err := NewClassifier(Thresholds{
		FlatGain: 1.15, LinearEfficiency: 0.80, SaturationTailGain: 1.08,
		DeclineFraction: 0.97, MinCoverage: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := loose.Classify(thin); got.Category != LowCoverage {
		t.Fatalf("single-point CU curve classified %v, want low-coverage", got.Category)
	}

	// With MinCoverage 0 and all marginals intact, sparse off-path
	// holes still classify to a real category.
	offpath := s
	offpath.Valid = make([]bool, len(s.Throughput))
	for i := range offpath.Valid {
		offpath.Valid[i] = true
	}
	// Mask one interior cell not on any marginal path and not a corner.
	offpath.Valid[(1*nF+0)*nM+1] = false
	if got := loose.Classify(offpath); got.Category != clean.Category {
		t.Fatalf("off-path hole flipped category %v -> %v", clean.Category, got.Category)
	}
}

func TestLowCoverageCategoryString(t *testing.T) {
	if LowCoverage.String() != "low-coverage" {
		t.Fatalf("LowCoverage.String() = %q", LowCoverage.String())
	}
	if NumCategories != int(LowCoverage)+1 {
		t.Fatal("NumCategories out of sync")
	}
}

func TestThresholdsMinCoverageValidated(t *testing.T) {
	bad := DefaultThresholds()
	bad.MinCoverage = 1.2
	if err := bad.Validate(); err == nil {
		t.Error("MinCoverage > 1 accepted")
	}
	bad.MinCoverage = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative MinCoverage accepted")
	}
}

// TestPartialClassificationMatchesCleanForCoveredKernels is the
// acceptance property: a faulty sweep with no retries must classify
// every fully covered kernel byte-identically to a fault-free sweep.
func TestPartialClassificationMatchesCleanForCoveredKernels(t *testing.T) {
	space := partialSpace(t)
	ks := partialKernels()
	clean, err := sweep.Run(ks, space, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := fault.Injector{ErrorRate: 0.05, Seed: 2}
	faulty, rep, err := sweep.RunContext(context.Background(), ks, space,
		sweep.Options{Row: in.WrapRow(gcn.RoundRow)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("faulty sweep failed nothing; property vacuous")
	}
	cl := DefaultClassifier()
	cleanCS := cl.ClassifyAll(Surfaces(clean))
	faultyCS := cl.ClassifyAll(Surfaces(faulty))
	covered := 0
	for i := range ks {
		if !faulty.RowComplete(i) {
			continue
		}
		covered++
		if !reflect.DeepEqual(cleanCS[i], faultyCS[i]) {
			t.Fatalf("kernel %s fully covered but classified differently:\nclean  %+v\nfaulty %+v",
				ks[i].Name, cleanCS[i], faultyCS[i])
		}
	}
	if covered == 0 {
		t.Fatal("no kernel survived fully covered; property vacuous")
	}
}
