package gcn

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// expiringCtx is a live context whose Err reports cancellation once n
// calls have passed, cutting a cell off at a chosen budget check.
type expiringCtx struct {
	context.Context
	n int
}

func (c *expiringCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// A cell cut off by its budget must leave nothing partial behind: no
// half-built memo entry and no scratch state that could change a later
// evaluation on the same row. Each engine's cell is cut by a 1ns
// budget, then at its first budget check inside the engine and at its
// last; after every cut the row must evaluate bit-identically to a
// freshly prepared one. The pipeline's first in-engine check falls
// inside its resident-set simulation, its last in the launch loop after
// that simulation was memoized.
func TestBudgetCutOffLeavesRowClean(t *testing.T) {
	cfgs := preparedTestConfigs()
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, re := range map[string]RowEngine{"wave": WaveRow, "pipeline": PipelineRow, "detailed": DetailedRow} {
		// Each engine needs a cell long enough to reach a budget check
		// inside the engine: the detailed engine drains identical
		// workgroups a whole resident batch per quantum, and the
		// pipeline's launch loop handles a resident batch per iteration,
		// so both get longer launches. The pipeline's resident set
		// crosses its compute stretches in a step each, so its waves
		// also get enough loads for the simulation to pass a check.
		k := capVALU(capWGs(computeBoundKernel(), 2048), 2000)
		switch name {
		case "detailed":
			k.Workgroups = 1 << 16
		case "pipeline":
			k.Workgroups = 1 << 20
			k.Mem.LoadsPerWave = 64
		}
		t.Run(name, func(t *testing.T) {
			prepare := func(ctx context.Context, perCell time.Duration) PreparedRow {
				row, err := re.PrepareRow(k)
				if err != nil {
					t.Fatal(err)
				}
				row.SetBudget(ctx, perCell)
				return row
			}
			used := prepare(context.Background(), time.Nanosecond)
			if _, err := evalOne(used, cfgs[0]); !errors.Is(err, ErrSimTimeout) {
				t.Fatalf("1ns budget: err = %v, want ErrSimTimeout", err)
			}
			used.SetBudget(context.Background(), 0)
			matchesFreshRow(t, used, re, k, cfgs)

			const plenty = 1 << 30
			probe := &expiringCtx{Context: live, n: plenty}
			if _, err := evalOne(prepare(probe, 0), cfgs[0]); err != nil {
				t.Fatal(err)
			}
			checks := plenty - probe.n // the first is the cell's start
			if checks < 3 {
				t.Fatalf("the cell reaches %d budget checks inside the engine, want at least 2", checks-1)
			}
			for i, n := range []int{1, checks - 1} {
				used := prepare(&expiringCtx{Context: live, n: n}, 0)
				if _, err := evalOne(used, cfgs[0]); !errors.Is(err, context.Canceled) {
					t.Fatalf("cut at check %d: err = %v, want context.Canceled", n+1, err)
				}
				if s := used.Stats(); name == "pipeline" && s.ResidentSetMisses != i {
					t.Fatalf("cut at check %d: %d resident sets memoized, want %d", n+1, s.ResidentSetMisses, i)
				}
				used.SetBudget(context.Background(), 0)
				matchesFreshRow(t, used, re, k, cfgs)
			}
		})
	}
}

// matchesFreshRow asserts that row evaluates cfgs bit-identically to a
// row freshly prepared from re.
func matchesFreshRow(t *testing.T, row PreparedRow, re RowEngine, k *kernel.Kernel, cfgs []hw.Config) {
	t.Helper()
	fresh, err := re.PrepareRow(k)
	if err != nil {
		t.Fatal(err)
	}
	got, want := evalAll(t, row, cfgs), evalAll(t, fresh, cfgs)
	for i := range cfgs {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("cell %d after a cut-off: %+v, fresh row %+v", i, got[i], want[i])
		}
	}
}

// TestBudgetCancelStopsBatch: once the budget's context ends, no
// further cell of a batch starts; each carries the context's error.
func TestBudgetCancelStopsBatch(t *testing.T) {
	k := capWGs(bandwidthBoundKernel(), 96)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, re := range []RowEngine{WaveRow, PipelineRow, DetailedRow} {
		row, err := re.PrepareRow(k)
		if err != nil {
			t.Fatal(err)
		}
		row.SetBudget(ctx, 0)
		cfgs := preparedTestConfigs()
		out := make([]Result, len(cfgs))
		errs := make([]error, len(cfgs))
		if err := row.EvalBatch(cfgs, out, errs); err != nil {
			t.Fatal(err)
		}
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cell %d: err = %v, want context.Canceled", i, err)
			}
		}
		if s := row.Stats(); s != (PreparedStats{}) {
			t.Fatalf("canceled batch evaluated cells: %+v", s)
		}
	}
}

func evalAll(t *testing.T, row PreparedRow, cfgs []hw.Config) []Result {
	t.Helper()
	out := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	if err := row.EvalBatch(cfgs, out, errs); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	return out
}
