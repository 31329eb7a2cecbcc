// Command gpusweep runs the 267-kernel x 891-configuration sweep and
// optionally archives the raw measurements as CSV — the data-collection
// step of the study.
//
// The runtime is built for flaky measurement campaigns: per-cell
// retries with backoff, per-simulation timeouts, panic isolation, a
// per-kernel circuit breaker that quarantines pathological rows,
// prompt Ctrl-C cancellation on every engine that keeps completed work, a
// deterministic fault injector for robustness drills, and a journaled
// resume mode (checksummed journal v2) that recomputes only the rows
// a previous (crashed or canceled) run did not finish. A corrupt or
// torn journal is salvaged, not fatal: the readable prefix is kept,
// the rest recomputed, and the process exits with code 3 so scripts
// can detect that truncation happened.
//
// Long campaigns are observable while they run: -trace-out streams a
// span per kernel row, retry and journal append and an instant per
// injected fault as JSONL (Chrome trace-event schema; summarize with
// sweeptrace), -metrics-addr
// serves Prometheus-style /metrics and a JSON /progress ETA over HTTP,
// and -progress prints a throttled progress line. All diagnostics go to
// stderr; stdout carries only data (the summary table, or the CSV when
// -o is "-").
//
// Usage:
//
//	gpusweep                          # run, print Table R-1 summary
//	gpusweep -o results.csv           # also archive raw measurements
//	gpusweep -o - | head              # stream the CSV to stdout
//	gpusweep -suite proxyapps         # restrict to one suite
//	gpusweep -engine detailed         # high-fidelity engine (slow)
//	gpusweep -noise 0.05 -seed 7      # inject measurement noise
//	gpusweep -retries 3 -backoff 2ms  # retry faulty cells
//	gpusweep -sim-timeout 5s          # bound each simulation
//	gpusweep -fault-rate 0.05 -fault-seed 1  # fault-injection drill
//	gpusweep -fault-panic-rate 0.01   # drill engine panics too
//	gpusweep -breaker 5               # quarantine a kernel row after
//	                                  # 5 consecutive hard failures
//	gpusweep -o run.csv -resume       # journal rows; rerun to finish
//	gpusweep -trace-out run.trace -progress  # live telemetry
//	gpusweep -metrics-addr :9090      # curl /metrics and /progress
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"time"

	"gpuscale/internal/experiments"
	"gpuscale/internal/fault"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/obs"
	"gpuscale/internal/suites"
	"gpuscale/internal/sweep"
)

// cliOptions collects every flag so tests can drive run directly.
type cliOptions struct {
	out         string
	suite       string
	engine      string
	noise       float64
	seed        int64
	workers     int
	corpusFile  string
	retries     int
	backoff     time.Duration
	simTimeout  time.Duration
	breaker     int
	quarantine  int
	faultRate   float64
	panicRate   float64
	tornRate    float64
	latency     time.Duration
	latencyRate float64
	faultSeed   int64
	resume      bool
	traceOut    string
	metricsAddr string
	progress    bool

	// probe is a test seam: when the metrics server is up, it is
	// invoked with the server's base URL after the sweep settles but
	// before shutdown, so tests can scrape live endpoints.
	probe func(baseURL string) error
}

func main() {
	var o cliOptions
	flag.StringVar(&o.out, "o", "", "write raw measurements to this CSV file (\"-\" for stdout)")
	flag.StringVar(&o.suite, "suite", "", "restrict the sweep to one suite")
	flag.StringVar(&o.engine, "engine", "round", "simulator engine: round, detailed, wave or pipeline")
	flag.Float64Var(&o.noise, "noise", 0, "measurement-noise stddev (0 = none)")
	flag.Int64Var(&o.seed, "seed", 1, "noise seed")
	flag.IntVar(&o.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.StringVar(&o.corpusFile, "corpus", "", "sweep kernels from this JSON file instead of the built-in corpus")
	flag.IntVar(&o.retries, "retries", 0, "extra attempts per cell after a failed or corrupt simulation")
	flag.DurationVar(&o.backoff, "backoff", 0, "initial retry backoff (doubles per retry, capped)")
	flag.DurationVar(&o.simTimeout, "sim-timeout", 0, "per-simulation timeout (0 = none)")
	flag.IntVar(&o.breaker, "breaker", 0, "quarantine the rest of a kernel row after this many consecutive hard failures (0 disables)")
	flag.IntVar(&o.quarantine, "quarantine", 0, "quarantine all unstarted kernels after this many breaker trips (0 disables)")
	flag.Float64Var(&o.faultRate, "fault-rate", 0, "inject transient faults at this rate (robustness drills)")
	flag.Float64Var(&o.panicRate, "fault-panic-rate", 0, "inject engine panics at this rate (robustness drills)")
	flag.Float64Var(&o.tornRate, "fault-torn-rate", 0, "inject torn journal writes at this rate (needs -resume)")
	flag.DurationVar(&o.latency, "fault-latency", 0, "maximum injected per-call latency (deterministic, needs -fault-latency-rate)")
	flag.Float64Var(&o.latencyRate, "fault-latency-rate", 0, "inject seeded per-call latency at this rate (robustness drills)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-injection seed")
	flag.BoolVar(&o.resume, "resume", false, "journal completed rows to -o and, on rerun, recompute only missing rows")
	flag.StringVar(&o.traceOut, "trace-out", "", "write per-row, per-retry and per-fault events to this JSONL trace file (see sweeptrace)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and /progress over HTTP on this address")
	flag.BoolVar(&o.progress, "progress", false, "print a throttled progress/ETA line to stderr")
	dumpCorpus := flag.String("dump-corpus", "", "write the built-in corpus as JSON to this file and exit")
	flag.Parse()

	if *dumpCorpus != "" {
		if err := writeCorpus(*dumpCorpus); err != nil {
			fmt.Fprintln(os.Stderr, "gpusweep:", err)
			os.Exit(1)
		}
		return
	}
	// Ctrl-C cancels the sweep but still reports (and, in resume
	// mode, keeps) every completed row.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	salvaged, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpusweep:", err)
		os.Exit(1)
	}
	if salvaged {
		// Distinct exit code: the run succeeded, but resume had to
		// drop corrupt journal records and recompute them — scripts
		// that archive journals should notice.
		os.Exit(3)
	}
}

// writeCorpus exports the built-in corpus as a JSON kernel list that
// -corpus can read back (possibly after hand edits).
func writeCorpus(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := kernel.WriteAll(f, suites.AllKernels(suites.Corpus())); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// loadCorpus reads a JSON kernel list for a custom sweep.
func loadCorpus(path string) ([]*kernel.Kernel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kernel.ReadAll(f)
}

// run executes the sweep. salvaged reports that resume recovered a
// corrupt journal by dropping records (main maps it to exit code 3).
func run(ctx context.Context, o cliOptions) (salvaged bool, err error) {
	// stdout is a data pipe (summary table, or CSV with -o -); every
	// diagnostic, progress line and accounting summary goes here.
	info := os.Stderr

	opts := sweep.Options{
		Workers:         o.workers,
		NoiseStdDev:     o.noise,
		Seed:            o.seed,
		Retries:         o.retries,
		Backoff:         o.backoff,
		SimTimeout:      o.simTimeout,
		Breaker:         o.breaker,
		QuarantineAfter: o.quarantine,
	}
	engine, err := sweep.ParseEngine(o.engine)
	if err != nil {
		return false, err
	}
	opts.Engine = engine
	if o.resume && o.out == "" {
		return false, fmt.Errorf("-resume needs -o (the journal file)")
	}
	if o.resume && o.out == "-" {
		return false, fmt.Errorf("-resume needs a journal file, not stdout")
	}
	if o.tornRate > 0 && !o.resume {
		return false, fmt.Errorf("-fault-torn-rate needs -resume (it tears journal writes)")
	}

	// Observability: one Telemetry observer feeds the trace file, the
	// metrics endpoints and the progress line; absent all three flags
	// the sweep runs the uninstrumented (nil observer) hot path.
	var (
		tel  *sweep.Telemetry
		sink *obs.Sink
	)
	if o.traceOut != "" || o.metricsAddr != "" || o.progress {
		if o.traceOut != "" {
			traceFile, err := os.Create(o.traceOut)
			if err != nil {
				return false, err
			}
			defer traceFile.Close()
			sink = obs.NewSink(obs.NewTraceWriter(traceFile), nil)
		}
		tel = sweep.NewTelemetry(obs.NewRegistry(), sink)
		if o.progress {
			tel.EmitProgress(info, time.Second)
		}
		opts.Observer = tel
	}
	in := fault.Injector{ErrorRate: o.faultRate, PanicRate: o.panicRate, TornWriteRate: o.tornRate,
		LatencyRate: o.latencyRate, Latency: o.latency, Seed: o.faultSeed}
	if err := in.Validate(); err != nil {
		return false, err
	}
	if in.Active() || in.TornWriteRate > 0 {
		if tel != nil {
			in.OnDecision = fault.Observe(tel.Registry(), sink)
		}
	}
	if in.Active() {
		opts.Row = in.WrapRow(opts.Engine.Row())
	}

	var metricsURL string
	if o.metricsAddr != "" {
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			return false, err
		}
		// obs.Server bounds read/write timeouts so a stuck scraper
		// cannot pin a connection; Shutdown (not Close) lets in-flight
		// scrapes finish once the sweep settles instead of leaking the
		// listener or cutting responses mid-body.
		srv := obs.Server(obs.Handler(tel.Registry(), tel.Progress()))
		go srv.Serve(ln) //nolint:errcheck // Shutdown below reports Serve's exit
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Fprintln(os.Stderr, "gpusweep: metrics shutdown:", err)
			}
		}()
		metricsURL = "http://" + ln.Addr().String()
		fmt.Fprintf(info, "gpusweep: serving %s/metrics and %s/progress\n", metricsURL, metricsURL)
	}

	var ks []*kernel.Kernel
	switch {
	case o.corpusFile != "":
		if o.suite != "" {
			return false, fmt.Errorf("-corpus and -suite are mutually exclusive")
		}
		var err error
		ks, err = loadCorpus(o.corpusFile)
		if err != nil {
			return false, err
		}
	case o.suite == "":
		ks = suites.AllKernels(suites.Corpus())
	default:
		s := suites.FindSuite(suites.Corpus(), o.suite)
		if s == nil {
			return false, fmt.Errorf("unknown suite %q", o.suite)
		}
		for _, p := range s.Programs {
			for _, e := range p.Kernels {
				ks = append(ks, e.Kernel)
			}
		}
	}
	space := hw.StudySpace()

	var journal *sweep.Journal
	var prior *sweep.Matrix
	if o.resume {
		var jopts sweep.JournalOptions
		if in.TornWriteRate > 0 {
			jopts.WrapWriter = in.WrapWriter
		}
		var err error
		journal, err = sweep.OpenJournalWith(o.out, space, jopts)
		if err != nil {
			return false, err
		}
		defer journal.Close()
		if s := journal.Salvage(); s != nil {
			if s.MigratedV1 {
				fmt.Fprintf(info, "gpusweep: journal %s migrated from v1 CSV format\n", o.out)
			}
			if s.DroppedBytes > 0 {
				salvaged = true
				fmt.Fprintf(info, "gpusweep: journal %s salvaged: dropped %d bytes (~%d records): %s\n",
					o.out, s.DroppedBytes, s.DroppedRecords, s.Reason)
			}
		}
		prior = journal.Prior()
		opts.OnRow = func(m *sweep.Matrix, r int) {
			start := time.Now()
			err := journal.AppendRow(m, r)
			if tel != nil {
				tel.JournalAppend(m.Kernels[r], time.Since(start), err)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "gpusweep: journal:", err)
			}
		}
	}

	m, rep, err := sweep.Resume(ctx, ks, space, opts, prior)
	if rep != nil {
		// Accounting is printed on every path — success, cancel, or
		// error — so no run ends as a black box.
		if err != nil {
			fmt.Fprintf(info, "sweep interrupted: %s\n", rep.Summary())
		} else {
			fmt.Fprintf(info, "swept %d kernels x %d configurations: %s\n", len(ks), space.Size(), rep.Summary())
		}
		if !rep.Complete() {
			printFailures(info, rep)
		}
	}
	if sink != nil {
		if terr := sink.Flush(); terr != nil {
			fmt.Fprintln(os.Stderr, "gpusweep: trace:", terr)
		} else {
			fmt.Fprintf(info, "wrote trace %s\n", o.traceOut)
		}
	}
	if err != nil {
		return salvaged, err
	}

	if o.suite == "" && o.corpusFile == "" && o.noise == 0 && o.engine == "round" &&
		o.faultRate == 0 && o.out != "-" && rep.Complete() {
		// The summary table needs the canonical full study.
		s, err := experiments.New()
		if err != nil {
			return salvaged, err
		}
		fmt.Println(s.TableR1())
	}

	switch {
	case journal != nil:
		// Rows were checkpointed as they completed; verify, then
		// atomically archive the finished matrix as plain CSV over the
		// journal (a later -resume run migrates it back if needed).
		if err := journal.VerifyComplete(m.Kernels); err != nil {
			return salvaged, fmt.Errorf("%w (rerun with -resume to finish)", err)
		}
		if err := m.WriteCSVFile(o.out); err != nil {
			return salvaged, err
		}
		fmt.Fprintf(info, "journal %s complete; archived as CSV\n", o.out)
	case o.out == "-":
		if err := m.WriteCSV(os.Stdout); err != nil {
			return salvaged, err
		}
	case o.out != "":
		if err := m.WriteCSVFile(o.out); err != nil {
			return salvaged, err
		}
		fmt.Fprintf(info, "wrote %s\n", o.out)
	}
	if o.probe != nil && metricsURL != "" {
		if err := o.probe(metricsURL); err != nil {
			return salvaged, err
		}
	}
	return salvaged, nil
}

// printFailures summarises a partial run's failed cells, capped so a
// pathological run does not flood the terminal.
func printFailures(w io.Writer, rep *sweep.RunReport) {
	const maxShown = 10
	for i, f := range rep.Failures {
		if i == maxShown {
			fmt.Fprintf(w, "  ... and %d more failed cells\n", len(rep.Failures)-maxShown)
			break
		}
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
}
