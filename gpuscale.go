// Package gpuscale reproduces "A Taxonomy of GPGPU Performance
// Scaling" (IISWC 2015) as a library: a configurable GCN-class GPU
// timing simulator, a 267-kernel behavioural benchmark corpus, a
// parallel sweep harness for the paper's 891-configuration grid, and
// the taxonomy pipeline that classifies how each kernel's performance
// responds to compute units, core clock, and memory bandwidth.
//
// This root package is a thin facade: it re-exports the stable types
// and entry points from the internal packages so downstream users
// never import internal paths. The typical flow is
//
//	space := gpuscale.StudySpace()                  // 891 configs
//	ks := gpuscale.CorpusKernels()                  // 267 kernels
//	m, err := gpuscale.RunSweep(ks, space, gpuscale.SweepOptions{})
//	cs := gpuscale.Classify(m)                      // taxonomy verdicts
//
// or, for the paper's full set of tables and figures in one call,
//
//	study, err := gpuscale.NewStudy()
//	fmt.Println(study.TableR3())
package gpuscale

import (
	"context"

	"gpuscale/internal/core"
	"gpuscale/internal/experiments"
	"gpuscale/internal/fault"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/suites"
	"gpuscale/internal/sweep"
)

// Re-exported types. These are aliases, so values flow freely between
// the facade and the internal packages.
type (
	// Config is one hardware configuration (CUs, core clock, memory
	// clock).
	Config = hw.Config
	// Space is a sweep grid over the three hardware knobs.
	Space = hw.Space
	// Kernel is the behavioural description of one GPGPU kernel.
	Kernel = kernel.Kernel
	// KernelBuilder assembles kernels fluently; see NewKernel.
	KernelBuilder = kernel.Builder
	// SimResult is one simulated execution.
	SimResult = gcn.Result
	// EngineFunc is the per-cell simulator signature shared by every
	// engine's Simulate entry point.
	EngineFunc = gcn.EngineFunc
	// SweepOptions configures RunSweep.
	SweepOptions = sweep.Options
	// Matrix holds sweep measurements (kernels x configurations).
	Matrix = sweep.Matrix
	// CellStatus is the terminal state of one sweep cell.
	CellStatus = sweep.CellStatus
	// RunReport accounts for every cell of a sweep run.
	RunReport = sweep.RunReport
	// CellFailure identifies one failed sweep cell.
	CellFailure = sweep.CellFailure
	// SweepJournal checkpoints completed sweep rows to a checksummed
	// journal file so interrupted runs resume where they stopped;
	// torn or corrupt tails are salvaged, not fatal.
	SweepJournal = sweep.Journal
	// FaultInjector wraps a row engine (WrapRow) with deterministic,
	// seed-driven transient errors, corrupt results, and stalls — the
	// test rig for flaky-hardware robustness drills.
	FaultInjector = fault.Injector
	// Surface is one kernel's performance over the grid.
	Surface = core.Surface
	// Classification is the taxonomy verdict for one kernel.
	Classification = core.Classification
	// Category is a combined scaling class.
	Category = core.Category
	// BenchSuite is one corpus suite.
	BenchSuite = suites.Suite
	// Study bundles a full end-to-end run with table/figure renderers.
	Study = experiments.Study
)

// AccessPattern describes a kernel's spatial memory-access structure.
type AccessPattern = kernel.AccessPattern

// Re-exported access patterns.
const (
	Streaming    = kernel.Streaming
	Tiled        = kernel.Tiled
	Strided      = kernel.Strided
	Gather       = kernel.Gather
	PointerChase = kernel.PointerChase
)

// Re-exported taxonomy categories.
const (
	CompCoupled        = core.CompCoupled
	BWCoupled          = core.BWCoupled
	Balanced           = core.Balanced
	ParallelismLimited = core.ParallelismLimited
	LatencyBound       = core.LatencyBound
	CUIntolerant       = core.CUIntolerant
	LaunchBound        = core.LaunchBound
	Irregular          = core.Irregular
	// LowCoverage marks kernels whose sweep lost too many cells to
	// classify trustworthily.
	LowCoverage = core.LowCoverage
)

// Re-exported sweep cell statuses.
const (
	CellOK       = sweep.StatusOK
	CellFailed   = sweep.StatusFailed
	CellCanceled = sweep.StatusCanceled
	// CellStalled marks a cell whose engine call ignored cancellation
	// and was abandoned by a watchdog; only matrices written by earlier
	// versions carry it.
	CellStalled = sweep.StatusStalled
	// CellQuarantined marks a cell skipped by the circuit breaker
	// after too many consecutive hard failures in its kernel's row.
	CellQuarantined = sweep.StatusQuarantined
)

// StudySpace returns the paper's 891-point configuration grid
// (11 CU counts x 9 core clocks x 9 memory clocks).
func StudySpace() Space { return hw.StudySpace() }

// NewSpace builds a custom validated sweep grid.
func NewSpace(cus []int, coreMHz, memMHz []float64) (Space, error) {
	return hw.NewSpace(cus, coreMHz, memMHz)
}

// ReferenceConfig returns the flagship configuration (44 CUs, top
// clocks).
func ReferenceConfig() Config { return hw.Reference() }

// NewKernel starts a kernel builder with sensible defaults.
func NewKernel(suite, program, name string) *KernelBuilder {
	return kernel.New(suite, program, name)
}

// Corpus constructs the deterministic 8-suite, 97-program, 267-kernel
// benchmark corpus.
func Corpus() []BenchSuite { return suites.Corpus() }

// CorpusKernels flattens the corpus into its kernel list.
func CorpusKernels() []*Kernel { return suites.AllKernels(suites.Corpus()) }

// Simulate runs one kernel on one configuration with the fast round
// engine.
func Simulate(k *Kernel, cfg Config) (SimResult, error) { return gcn.Simulate(k, cfg) }

// SimulateDetailed runs the continuous-dispatch high-fidelity engine.
func SimulateDetailed(k *Kernel, cfg Config) (SimResult, error) {
	return gcn.SimulateDetailed(k, cfg)
}

// SimulateWave runs the wavefront-level event engine, the slowest and
// most detailed of the three; use it for validation on launches up to
// a few thousand workgroups.
func SimulateWave(k *Kernel, cfg Config) (SimResult, error) {
	return gcn.SimulateWave(k, cfg)
}

// SimulatePipeline runs the execution-driven cycle-level engine: the
// kernel is lowered to an instruction stream (mini ISA) and one
// resident set is interpreted cycle by cycle with issue arbitration
// and a load scoreboard. Validation use only.
func SimulatePipeline(k *Kernel, cfg Config) (SimResult, error) {
	return gcn.SimulatePipeline(k, cfg)
}

// Product is a named product-tier configuration.
type Product = hw.Product

// Products returns the modelled product ladder, embedded to flagship.
func Products() []Product { return hw.Products() }

// RunSweep measures every kernel on every configuration in parallel
// with strict semantics: any cell still failed after retries turns the
// sweep into an error. Use RunSweepContext for cancellation and
// graceful degradation to partial matrices.
func RunSweep(ks []*Kernel, space Space, opts SweepOptions) (*Matrix, error) {
	return sweep.Run(ks, space, opts)
}

// RunSweepContext measures every kernel on every configuration,
// tolerating per-cell failures: failed cells are marked in the
// matrix's Status plane and accounted for in the report instead of
// aborting the sweep. Cancelling the context stops the sweep promptly
// and still returns the partial matrix and a complete report.
func RunSweepContext(ctx context.Context, ks []*Kernel, space Space, opts SweepOptions) (*Matrix, *RunReport, error) {
	return sweep.RunContext(ctx, ks, space, opts)
}

// ResumeSweep completes a partial sweep: fully measured rows of prior
// are reused verbatim and only missing or failed rows are recomputed.
func ResumeSweep(ctx context.Context, ks []*Kernel, space Space, opts SweepOptions, prior *Matrix) (*Matrix, *RunReport, error) {
	return sweep.Resume(ctx, ks, space, opts, prior)
}

// OpenSweepJournal opens or creates a row-level sweep checkpoint file.
// To make a long sweep crash-safe, wire its AppendRow into
// SweepOptions.OnRow, pass Prior to ResumeSweep, and Close the journal
// once the sweep returns. AppendRow returns once its row is fsynced;
// rows that finish together share one write and one fsync, through the
// journal's group committer (Commit, Flush).
func OpenSweepJournal(path string, space Space) (*SweepJournal, error) {
	return sweep.OpenJournal(path, space)
}

// Classify runs the rule-based taxonomy over a sweep matrix with
// default thresholds.
func Classify(m *Matrix) []Classification {
	return core.DefaultClassifier().ClassifyAll(core.Surfaces(m))
}

// ClassifySurface labels a single surface.
func ClassifySurface(s Surface) Classification {
	return core.DefaultClassifier().Classify(s)
}

// Surfaces extracts per-kernel scaling surfaces from a matrix.
func Surfaces(m *Matrix) []Surface { return core.Surfaces(m) }

// NewStudy runs the complete reproduction pipeline: corpus, full
// sweep, classification. Use the Study's TableRn/FigRn methods to
// regenerate the paper's artifacts.
func NewStudy() (*Study, error) { return experiments.New() }
