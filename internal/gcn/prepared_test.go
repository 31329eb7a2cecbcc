package gcn

import (
	"errors"
	"math"
	"testing"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// The two-phase pipeline's contract is exact equivalence: a Prepared
// evaluated across a row must reproduce the one-shot Simulate* results
// bit for bit, including after the scratch arenas and memos have been
// dirtied by other configurations. These tests exercise every engine
// over every archetype kernel on a config grid diverse enough to hit
// multiple occupancies, hit-rate keys and resident-set keys.

// capWGs returns a copy of k with the launch shrunk to at most wgs
// workgroups. Equivalence is a per-cell property, not a scale
// property, and the event-driven engines are O(waves) — the archetype
// kernels' full 4096-workgroup launches would cost minutes here
// without testing anything extra.
func capWGs(k *kernel.Kernel, wgs int) *kernel.Kernel {
	c := *k
	if c.Workgroups > wgs {
		c.Workgroups = wgs
	}
	return &c
}

// capVALU additionally shrinks the per-wave instruction count — the
// pipeline's cycle-by-cycle reference scheduler is O(instructions x
// waves), and a 2000-VALU wave against ~10 memory accesses is exactly
// as compute-bound as a 50000-VALU one.
func capVALU(k *kernel.Kernel, n int) *kernel.Kernel {
	if k.VALUPerWave > n {
		k.VALUPerWave = n
	}
	return k
}

func preparedTestKernels() []*kernel.Kernel {
	return []*kernel.Kernel{
		capVALU(capWGs(computeBoundKernel(), 96), 2000),
		capWGs(bandwidthBoundKernel(), 96),
		capVALU(parallelismLimitedKernel(), 2000),
		capWGs(cuIntolerantKernel(), 96),
		capWGs(latencyBoundKernel(), 64),
		launchBoundKernel(),
	}
}

func preparedTestConfigs() []hw.Config {
	var cfgs []hw.Config
	for _, cus := range []int{4, 16, 44} {
		for _, core := range []float64{500, 1000} {
			for _, mem := range []float64{500, 1250} {
				cfgs = append(cfgs, cfgWith(cus, core, mem))
			}
		}
	}
	return cfgs
}

// bitsEqual compares two results field by field at the bit level —
// stricter than ==, which would conflate +0 and -0.
func bitsEqual(a, b Result) bool {
	fe := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return fe(a.TimeNS, b.TimeNS) && fe(a.KernelNS, b.KernelNS) &&
		fe(a.Throughput, b.Throughput) && fe(a.AchievedGFLOPS, b.AchievedGFLOPS) &&
		fe(a.AchievedGBs, b.AchievedGBs) &&
		fe(a.HitRates.L1, b.HitRates.L1) && fe(a.HitRates.L2, b.HitRates.L2) &&
		a.OccupancyWaves == b.OccupancyWaves && a.Bound == b.Bound &&
		fe(a.BoundShare, b.BoundShare)
}

// evalOne evaluates one cell through the row seam, as a one-element
// batch.
func evalOne(row PreparedRow, cfg hw.Config) (Result, error) {
	out, errs := make([]Result, 1), make([]error, 1)
	if err := row.EvalBatch([]hw.Config{cfg}, out, errs); err != nil {
		return Result{}, err
	}
	return out[0], errs[0]
}

func TestPreparedRowMatchesPerCell(t *testing.T) {
	engines := []struct {
		name string
		sim  EngineFunc
		row  RowEngine
	}{
		{"round", Simulate, RoundRow},
		{"detailed", SimulateDetailed, DetailedRow},
		{"wave", SimulateWave, WaveRow},
		{"pipeline", SimulatePipeline, PipelineRow},
	}
	cfgs := preparedTestConfigs()
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			for _, k := range preparedTestKernels() {
				row, err := e.row.PrepareRow(k)
				if err != nil {
					t.Fatalf("%s: PrepareRow: %v", k.Name, err)
				}
				want := make([]Result, len(cfgs))
				for i, cfg := range cfgs {
					want[i], err = e.sim(k, cfg)
					if err != nil {
						t.Fatalf("%s on %v: %v", k.Name, cfg, err)
					}
					got, err := evalOne(row, cfg)
					if err != nil {
						t.Fatalf("%s on %v: Eval: %v", k.Name, cfg, err)
					}
					if !bitsEqual(got, want[i]) {
						t.Fatalf("%s on %v: prepared %+v != per-cell %+v", k.Name, cfg, got, want[i])
					}
				}
				// Re-evaluate in reverse on the now fully dirtied scratch
				// and warm memos: results must not drift.
				for i := len(cfgs) - 1; i >= 0; i-- {
					got, err := evalOne(row, cfgs[i])
					if err != nil {
						t.Fatalf("%s on %v: re-Eval: %v", k.Name, cfgs[i], err)
					}
					if !bitsEqual(got, want[i]) {
						t.Fatalf("%s on %v: warm re-eval %+v != first eval %+v", k.Name, cfgs[i], got, want[i])
					}
				}
			}
		})
	}
}

func TestPrepareRejectsRowLevelConditions(t *testing.T) {
	// A workgroup that cannot fit on any CU is a row-level error.
	big := kernel.New("s", "p", "huge").Geometry(16, 1024).MustBuild()
	big.SGPRsPerWave = 512
	if _, err := Prepare(big); !errors.Is(err, ErrDoesNotFit) {
		t.Fatalf("Prepare(unfittable) = %v, want ErrDoesNotFit", err)
	}
	// So is a kernel that fails validation outright.
	bad := computeBoundKernel()
	bad.WGSize = 0
	if _, err := Prepare(bad); err == nil {
		t.Fatal("Prepare accepted an invalid kernel")
	}
	for _, re := range []RowEngine{RoundRow, WaveRow, PipelineRow, DetailedRow} {
		if _, err := re.PrepareRow(big); !errors.Is(err, ErrDoesNotFit) {
			t.Fatalf("PrepareRow(unfittable) = %v, want ErrDoesNotFit", err)
		}
	}
}

func TestPreparedStatsCountMemoTraffic(t *testing.T) {
	// Re-evaluating one configuration must serve the second pass
	// entirely from the memos.
	row, err := PipelineRow.PrepareRow(bandwidthBoundKernel())
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgWith(16, 1000, 1250)
	if _, err := evalOne(row, cfg); err != nil {
		t.Fatal(err)
	}
	first := row.Stats()
	if first.HitRateMisses == 0 || first.ResidentSetMisses == 0 {
		t.Fatalf("first eval recorded no memo misses: %+v", first)
	}
	if _, err := evalOne(row, cfg); err != nil {
		t.Fatal(err)
	}
	second := row.Stats()
	if second.HitRateMisses != first.HitRateMisses || second.ResidentSetMisses != first.ResidentSetMisses {
		t.Fatalf("repeat eval recomputed memoized state: %+v -> %+v", first, second)
	}
	if second.HitRateHits <= first.HitRateHits || second.ResidentSetHits <= first.ResidentSetHits {
		t.Fatalf("repeat eval did not hit the memos: %+v -> %+v", first, second)
	}
}
