// Command benchsweep measures sweep throughput for every engine on the
// sweep's one evaluation path — one Prepare per kernel row, then one
// whole-axis EvalBatch call — and archives the numbers as
// machine-readable JSON.
//
// The output file (BENCH_sweep.json, schema "gpuscale/bench-sweep/v2")
// is the repository's performance ledger for the data-collection hot
// path: cells per second, nanoseconds per cell, and allocation rates
// per engine, measured on a single worker so the numbers
// price the evaluation pipeline rather than the scheduler. Re-run it
// after touching the engines or the sweep runtime and compare against
// the checked-in copy; see README.md ("Benchmarking the sweep").
//
// With -gate, benchsweep instead compares a fresh measurement against
// a committed baseline ledger and exits non-zero when any matching
// (engine, mode) entry regressed by more than -gate-slack — the CI
// guard (`make bench-gate`) that keeps the hot path from silently
// losing its speed. Entries absent from the baseline pass vacuously.
//
// Usage:
//
//	benchsweep                  # full 891-config study grid
//	benchsweep -quick           # 27-config grid, one iteration (smoke)
//	benchsweep -o bench.json    # write somewhere else
//	benchsweep -engines round,pipeline
//	benchsweep -gate BENCH_sweep.json -engines round,pipeline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/sweep"
)

// Schema identifies the report format for downstream tooling.
const Schema = "gpuscale/bench-sweep/v2"

// Entry is one (engine, mode) measurement.
type Entry struct {
	// Engine is the simulator engine name (round, detailed, wave,
	// pipeline); Mode is always "batch" (row path, whole-axis
	// EvalBatch).
	Engine string `json:"engine"`
	Mode   string `json:"mode"`
	// Kernel geometry and grid size describe the workload.
	Kernel     string `json:"kernel"`
	Workgroups int    `json:"workgroups"`
	WGSize     int    `json:"wg_size"`
	Configs    int    `json:"configs"`
	// Iterations is how many full sweeps the timing loop ran.
	Iterations int `json:"iterations"`
	// NsPerCell and CellsPerSec are wall-clock rates over all
	// iterations; BytesPerCell and AllocsPerCell are heap allocation
	// rates from runtime.MemStats deltas.
	NsPerCell     float64 `json:"ns_per_cell"`
	CellsPerSec   float64 `json:"cells_per_sec"`
	BytesPerCell  float64 `json:"bytes_per_cell"`
	AllocsPerCell float64 `json:"allocs_per_cell"`
}

// Report is the whole ledger.
type Report struct {
	Schema  string  `json:"schema"`
	GOOS    string  `json:"goos"`
	GOARCH  string  `json:"goarch"`
	Quick   bool    `json:"quick"`
	Entries []Entry `json:"entries"`
}

func main() {
	out := flag.String("o", "BENCH_sweep.json", "write the JSON report here (\"-\" for stdout)")
	quick := flag.Bool("quick", false, "27-config grid and a single iteration per entry (CI smoke, not a ledger run)")
	engines := flag.String("engines", "round,detailed,wave,pipeline", "comma-separated engines to measure")
	budget := flag.Duration("budget", 2*time.Second, "per-entry time budget (at least one iteration always runs)")
	gate := flag.String("gate", "", "baseline ledger to gate against; exits non-zero on regression instead of writing a report")
	slack := flag.Float64("gate-slack", 0.25, "allowed fractional ns/cell regression before the gate fails")
	flag.Parse()

	rep, err := run(*quick, splitList(*engines), *budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	if *gate != "" {
		if err := runGate(rep, *gate, *slack); err != nil {
			fmt.Fprintln(os.Stderr, "benchsweep:", err)
			os.Exit(1)
		}
		return
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// runGate compares fresh measurements against the baseline ledger and
// fails on any matching (engine, mode) pair whose ns/cell grew by more
// than slack. Entries without a baseline counterpart pass with a
// notice: a gate can only hold a line that was drawn.
func runGate(fresh *Report, baselinePath string, slack float64) error {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("gate baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("gate baseline %s: %w", baselinePath, err)
	}
	if base.Schema != Schema {
		return fmt.Errorf("gate baseline %s: unknown schema %q", baselinePath, base.Schema)
	}
	byKey := map[string]Entry{}
	for _, e := range base.Entries {
		byKey[e.Engine+"/"+e.Mode] = e
	}
	failed := false
	for _, e := range fresh.Entries {
		b, present := byKey[e.Engine+"/"+e.Mode]
		if !present || b.NsPerCell <= 0 {
			fmt.Fprintf(os.Stderr, "gate: %-8s %-8s no baseline entry, skipped\n", e.Engine, e.Mode)
			continue
		}
		ratio := e.NsPerCell / b.NsPerCell
		verdict := "ok"
		if ratio > 1+slack {
			verdict = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "gate: %-8s %-8s %10.0f ns/cell vs %10.0f baseline (%.2fx)  %s\n",
			e.Engine, e.Mode, e.NsPerCell, b.NsPerCell, ratio, verdict)
	}
	if failed {
		return fmt.Errorf("gate failed: ns/cell regressed more than %.0f%% against %s", slack*100, baselinePath)
	}
	return nil
}

func run(quick bool, engineNames []string, budget time.Duration) (*Report, error) {
	space := hw.StudySpace()
	if quick {
		var err error
		space, err = hw.NewSpace([]int{8, 24, 44}, []float64{300, 600, 1000}, []float64{300, 700, 1250})
		if err != nil {
			return nil, err
		}
	}
	// Round gets the full-size bench kernel; the event-driven engines
	// get a 256-workgroup one so an iteration over the grid finishes in
	// seconds.
	bigK := kernel.New("bench", "bench", "k4096").Geometry(4096, 256).MustBuild()
	smallK := kernel.New("bench", "bench", "k256").Geometry(256, 256).MustBuild()

	rep := &Report{Schema: Schema, GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Quick: quick}
	for _, name := range engineNames {
		e, err := sweep.ParseEngine(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		k := smallK
		if e == sweep.Round {
			k = bigK
		}
		ent, err := measure(e.String(), k, space, sweep.Options{Engine: e, Workers: 1}, quick, budget)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%-8s %-8s %9.0f cells/s  %10.0f ns/cell  %8.0f B/cell  %6.1f allocs/cell  (%d iter)\n",
			ent.Engine, ent.Mode, ent.CellsPerSec, ent.NsPerCell, ent.BytesPerCell, ent.AllocsPerCell, ent.Iterations)
		rep.Entries = append(rep.Entries, ent)
	}
	return rep, nil
}

// measure runs whole sweeps of one kernel over the grid until the
// time budget is spent (always at least once) and reports wall-clock
// and allocation rates per cell. A single untimed warm-up run
// excludes one-time costs (scheduler spin-up, first-touch pages) from
// the rates.
func measure(engine string, k *kernel.Kernel, space hw.Space, opts sweep.Options, quick bool, budget time.Duration) (Entry, error) {
	ks := []*kernel.Kernel{k}
	cells := space.Size()
	if _, err := sweep.Run(ks, space, opts); err != nil {
		return Entry{}, fmt.Errorf("%s warm-up: %w", engine, err)
	}
	if quick {
		budget = 0 // one iteration
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	iters := 0
	start := time.Now()
	for {
		if _, err := sweep.Run(ks, space, opts); err != nil {
			return Entry{}, fmt.Errorf("%s: %w", engine, err)
		}
		iters++
		if time.Since(start) >= budget || iters >= 1000 {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	total := float64(iters) * float64(cells)
	return Entry{
		Engine:        engine,
		Mode:          "batch",
		Kernel:        k.Name,
		Workgroups:    k.Workgroups,
		WGSize:        k.WGSize,
		Configs:       cells,
		Iterations:    iters,
		NsPerCell:     float64(elapsed.Nanoseconds()) / total,
		CellsPerSec:   total / elapsed.Seconds(),
		BytesPerCell:  float64(m1.TotalAlloc-m0.TotalAlloc) / total,
		AllocsPerCell: float64(m1.Mallocs-m0.Mallocs) / total,
	}, nil
}
