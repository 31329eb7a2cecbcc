// Command gpuscaled serves sweep jobs over HTTP — the long-lived form
// of gpusweep. Clients POST a job (a suite or inline kernel list plus
// an optional configuration grid), poll its status, fetch the partial
// or complete matrix as CSV, and cancel it.
//
// The daemon is built to survive overload and crashes rather than
// merely work when everything is calm:
//
//   - Admission is bounded: at most -max-jobs open jobs, an optional
//     token-bucket rate limit (-rate/-burst) and per-client cap
//     (-client-cap). Anything past a bound is shed with 429/503 and a
//     Retry-After hint — never buffered without bound.
//   - Every job runs under a deadline context (-max-deadline caps what
//     clients may ask for), handlers are panic-isolated, and the HTTP
//     server has bounded read/write timeouts.
//   - State is crash-only: admissions, per-row journal checkpoints and
//     terminal states are fsynced in -state; kill -9 the daemon at any
//     instant, restart it, and every unfinished job resumes with its
//     completed rows intact. A job's journal, with the few rows its
//     terminal record carries, is its matrix: /matrix renders the CSV
//     from them, and nothing writes a CSV archive.
//   - SIGTERM/SIGINT drains: admission flips to shedding (watch
//     /readyz), in-flight jobs get -drain-grace to finish, and whatever
//     is still running is interrupted and left journaled for the next
//     start.
//
// The daemon also scales out. `-coordinator` keeps the whole client
// API unchanged but executes each admitted job by leasing kernel rows
// to a fleet over `/v1/dist/` (internal/dist, protocol
// gpuscale-dist/6): monotonic lease epochs, expiry + work-stealing,
// fsync-before-ack completion, with rows leased in batches sized from
// their measured cost — one fsync per file, one replication barrier
// and one round trip per batch. `-worker -join URL` runs the
// complementary process: an API-less, stateless worker that acquires
// lease batches (an acquire with nothing to grant waits at the
// coordinator instead of polling), sweeps rows with the same executor
// — its -retries, -backoff, -sim-timeout, -workers and engine fault
// flags included — and reports back; it writes no journal (a finished
// row lives only in the job's journal on the coordinator), so kill -9
// it at any instant and its leases just expire.
//
// Usage:
//
//	gpuscaled -state /var/lib/gpuscaled          # serve on :8080
//	gpuscaled -addr :9000 -max-jobs 8 -rate 5    # tighter bounds
//	gpuscaled -fault-rate 0.05 -fault-seed 1     # chaos drill
//
//	gpuscaled -coordinator -lease-ttl 15s        # fleet head
//	gpuscaled -worker -join http://head:8080     # fleet member (xN)
//
//	curl -XPOST localhost:8080/v1/jobs -d '{"suite":"rodinia"}'
//	curl localhost:8080/v1/jobs/job-000000
//	curl localhost:8080/v1/jobs/job-000000/matrix > m.csv
//	curl -XDELETE localhost:8080/v1/jobs/job-000000
//
// The fleet defends itself against byzantine members, not just
// crashed ones. Every acquire carries a version + engine-fingerprint
// handshake (mixed binaries are fenced before computing anything),
// every completed row is attested with a digest of its journal record,
// and `-verify-fraction` re-executes a seed-deterministic
// sample of rows on a second worker — the first digest mismatch
// quarantines the lying worker, revokes its leases, retracts its
// unverified rows, and drops it from /metrics/fleet.
//
// Coordinators come in pairs. `-standby -join URL` runs a warm
// replica: its -state becomes a copy of the primary's (the lease
// ledger, every job's admission and terminal records and journal),
// replicated over `/v1/ha/`; until it promotes it
// answers the lease protocol and `/v1/jobs` with 503 not-primary. After
// `-promote-after` of primary silence it promotes at the next
// coordinator term, and promotion is a -coordinator's own start-up
// over that directory: every job without a terminal record resumes,
// and the job API behaves as on the primary. The admission flags
// (-runners, -max-jobs, -rate, -burst, -client-cap, -max-deadline,
// -drain-grace) take effect on a standby at promotion. A job terminal
// before the failover answers its status and its /matrix as it did on
// the primary: its journal and terminal record replicated, and they
// are its matrix. `-peers` lets a primary probe for a newer
// term and step down instead of splitting the brain. Workers given a comma-separated `-join` (or extra
// `-peers`) rotate between coordinators on failure, so a failover
// loses no in-flight lease that completes within its TTL.
//
// Every mode either uses an executor flag (-retries, -backoff,
// -sim-timeout, -breaker, -workers and the five -fault-* engine and
// journal flags) or refuses it at start-up, naming it: a plain daemon
// uses them all; a -worker uses all but -breaker and -fault-torn-rate,
// so its row sweeps retry, time out and take injected faults exactly as
// a plain daemon's do; a -coordinator, and a -standby, which becomes
// one, use only -fault-torn-rate (its jobs' journals). A fleet answers
// a job's "retries" field 400 at admission: the workers' -retries
// applies to every cell.
//
// Exit codes: 0 clean drain, 1 startup or serve error, 2 a flag the
// mode refuses, 4 worker fenced by the version/fingerprint handshake,
// 5 worker quarantined by the coordinator, 6 coordinator deposed by a
// newer term.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"gpuscale/internal/dist"
	"gpuscale/internal/fault"
	"gpuscale/internal/obs"
	"gpuscale/internal/serve"
	"gpuscale/internal/sweep"
)

// cliOptions collects every flag so tests can drive run directly.
type cliOptions struct {
	addr         string
	stateDir     string
	runners      int
	workers      int
	maxJobs      int
	rate         float64
	burst        int
	clientCap    int
	maxDeadline  time.Duration
	drainGrace   time.Duration
	retries      int
	backoff      time.Duration
	simTimeout   time.Duration
	breaker      int
	faultRate    float64
	panicRate    float64
	tornRate     float64
	latency      time.Duration
	latencyRate  float64
	faultSeed    int64
	corruptRate  float64
	staleVersion string

	coordinator    bool
	standby        bool
	worker         bool
	join           string
	peers          string
	heartbeatEvery time.Duration
	promoteAfter   time.Duration
	selfFenceAfter time.Duration
	leaseTTL       time.Duration
	verifyFraction float64
	workerName     string
	traceOut       string
	pprof          bool
	diagAddr       string
	flightDump     string

	// ready is a test seam: invoked with the server's base URL once it
	// is listening, alongside the serving loop.
	ready func(baseURL string)
}

func main() {
	var o cliOptions
	flag.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	flag.StringVar(&o.stateDir, "state", "gpuscaled-state", "state directory (job specs, journals, matrices); a -standby keeps its replica of the primary's here")
	flag.IntVar(&o.runners, "runners", 1, "jobs run concurrently (a -standby's take effect at promotion, as do the other admission flags)")
	flag.IntVar(&o.workers, "workers", 0, "sweep workers per job (0 = GOMAXPROCS)")
	flag.IntVar(&o.maxJobs, "max-jobs", 16, "open (queued+running) job bound; beyond it submissions shed with 503")
	flag.Float64Var(&o.rate, "rate", 0, "admission rate limit in submissions/second (0 = unlimited)")
	flag.IntVar(&o.burst, "burst", 4, "admission token-bucket burst")
	flag.IntVar(&o.clientCap, "client-cap", 0, "open jobs allowed per client (0 = unlimited)")
	flag.DurationVar(&o.maxDeadline, "max-deadline", 0, "cap on (and default for) per-job deadlines (0 = none)")
	flag.DurationVar(&o.drainGrace, "drain-grace", 10*time.Second, "how long SIGTERM lets in-flight jobs finish before interrupting them")
	flag.IntVar(&o.retries, "retries", 0, "extra attempts per cell after a failed or corrupt simulation")
	flag.DurationVar(&o.backoff, "backoff", 0, "initial retry backoff (doubles per retry, capped)")
	flag.DurationVar(&o.simTimeout, "sim-timeout", 0, "per-simulation timeout (0 = none)")
	flag.IntVar(&o.breaker, "breaker", 0, "quarantine a kernel row after this many consecutive hard failures (0 disables)")
	flag.Float64Var(&o.faultRate, "fault-rate", 0, "inject transient faults at this rate (chaos drills)")
	flag.Float64Var(&o.panicRate, "fault-panic-rate", 0, "inject engine panics at this rate (chaos drills)")
	flag.Float64Var(&o.tornRate, "fault-torn-rate", 0, "inject torn journal writes at this rate (chaos drills)")
	flag.DurationVar(&o.latency, "fault-latency", 0, "maximum injected per-call latency (needs -fault-latency-rate)")
	flag.Float64Var(&o.latencyRate, "fault-latency-rate", 0, "inject seeded per-call latency at this rate (chaos drills)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-injection seed")
	flag.Float64Var(&o.corruptRate, "fault-corrupt-row-rate", 0, "make this -worker byzantine: tamper computed rows at this rate before rendering and attesting them (chaos drills)")
	flag.StringVar(&o.staleVersion, "fault-stale-version", "", "make this -worker present the given protocol version on acquire instead of its real one (chaos drills)")
	flag.BoolVar(&o.coordinator, "coordinator", false, "execute jobs by leasing kernel rows to a worker fleet over /v1/dist/")
	flag.BoolVar(&o.standby, "standby", false, "run as a warm standby coordinator replicating the primary at -join into -state; promotes after -promote-after of primary silence and then serves as a -coordinator")
	flag.BoolVar(&o.worker, "worker", false, "run as a fleet worker instead of serving the job API (requires -join)")
	flag.StringVar(&o.join, "join", "", "coordinator base URL(s), comma separated: a -worker acquires leases from them (rotating on failure), a -standby replicates from the first")
	flag.StringVar(&o.peers, "peers", "", "comma-separated peer coordinator base URLs: a -coordinator probes them for newer terms (and steps down if one is live); a -worker adds them to its rotation list")
	flag.DurationVar(&o.heartbeatEvery, "heartbeat-every", 250*time.Millisecond, "HA heartbeat cadence: peer-probe interval on a -coordinator, replication pacing on a -standby")
	flag.DurationVar(&o.promoteAfter, "promote-after", 3*time.Second, "missed-heartbeat deadline after which a synced -standby promotes itself to primary")
	flag.DurationVar(&o.selfFenceAfter, "self-fence-after", 0, "a -coordinator whose standby once tailed it steps down after this long without any tail contact (0 disables)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", 10*time.Second, "how long a row lease lives without renewal before it is stolen (-coordinator)")
	flag.Float64Var(&o.verifyFraction, "verify-fraction", 0, "fraction of rows re-executed on a second worker before acceptance; digest mismatches strike the loser (-coordinator)")
	flag.StringVar(&o.workerName, "worker-name", "", "worker identity in leases and traces (default host-pid)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write this process's events (leases, rows, retries, renewals, ...) to this JSONL trace file (see sweeptrace)")
	flag.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/ (off by default)")
	flag.StringVar(&o.diagAddr, "diag-addr", "", "worker diagnostics listen address serving /metrics, /debug/flight and (with -pprof) /debug/pprof/; advertised to the coordinator for /metrics/fleet")
	flag.StringVar(&o.flightDump, "flight-dump", "", "dump a flight recorder and exit: a daemon base URL (fetches /debug/flight) or a flight.ring file path (post-mortem after kill -9)")
	flag.Parse()

	if o.flightDump != "" {
		if err := runFlightDump(o.flightDump); err != nil {
			fmt.Fprintln(os.Stderr, "gpuscaled:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "gpuscaled:", err)
		os.Exit(exitCodeFor(err))
	}
}

// exitCodeFor maps terminal errors to documented exit codes, so
// process supervisors can tell "rebuild me" (4: this binary cannot
// join that fleet), "investigate me" (5: the coordinator proved this
// worker computes wrong answers) and "do not restart me as primary"
// (6: a newer coordinator term is live; restart as -standby or not at
// all) from a usage error (2, as for a bad flag) and generic failure
// (1).
func exitCodeFor(err error) int {
	switch {
	case errors.Is(err, errUsage):
		return 2
	case errors.Is(err, dist.ErrVersionFenced):
		return 4
	case errors.Is(err, dist.ErrQuarantined):
		return 5
	case errors.Is(err, dist.ErrDeposed):
		return 6
	default:
		return 1
	}
}

// errUsage marks a flag combination gpuscaled refuses at start-up.
var errUsage = errors.New("usage")

// checkExecutorFlags refuses, by name, every executor flag the mode
// would accept and then ignore. Plain serving uses them all; a worker
// sweeps rows with all but -breaker (it has no breaker) and
// -fault-torn-rate (it writes no journal); a coordinator's only journal
// is serve's, so it uses -fault-torn-rate and leaves the sweeps — and
// the other nine — to its workers; a standby becomes a coordinator when
// it promotes, and takes the same flags.
func checkExecutorFlags(o cliOptions) error {
	set := map[string]bool{
		"-retries": o.retries != 0, "-backoff": o.backoff != 0, "-sim-timeout": o.simTimeout != 0,
		"-breaker": o.breaker != 0, "-workers": o.workers != 0, "-fault-rate": o.faultRate != 0,
		"-fault-panic-rate": o.panicRate != 0, "-fault-torn-rate": o.tornRate != 0,
		"-fault-latency": o.latency != 0, "-fault-latency-rate": o.latencyRate != 0,
	}
	var mode, why string
	var refused []string
	switch {
	case o.worker:
		mode, why = "-worker", "a worker has no breaker and writes no journal"
		refused = []string{"-breaker", "-fault-torn-rate"}
	case o.coordinator || o.standby:
		mode, why = "-coordinator", "the fleet's workers run the sweeps: start them with it"
		if o.standby {
			mode = "-standby"
		}
		refused = []string{"-retries", "-backoff", "-sim-timeout", "-breaker", "-workers", "-fault-rate",
			"-fault-panic-rate", "-fault-latency", "-fault-latency-rate"}
	}
	for _, f := range refused {
		if set[f] {
			return fmt.Errorf("%w: %s does nothing with %s (%s)", errUsage, f, mode, why)
		}
	}
	return nil
}

// splitList parses a comma-separated URL list, dropping empties and
// trailing slashes so "a,, b/" and "a,b" address the same peers.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSuffix(strings.TrimSpace(p), "/"); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runFlightDump renders a flight recorder's ring as JSONL on stdout.
// A URL asks a live daemon over /debug/flight; a path reads the
// file-backed ring a dead process left behind — torn slots from the
// moment of death are skipped by their CRCs.
func runFlightDump(target string) error {
	var (
		evs []obs.FlightEvent
		err error
	)
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		resp, herr := http.Get(strings.TrimSuffix(target, "/") + "/debug/flight")
		if herr != nil {
			return herr
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("flight dump: %s answered %d", target, resp.StatusCode)
		}
		evs, err = obs.ReadFlightDump(resp.Body)
	} else {
		evs, err = obs.ReadFlightFile(target)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return err
		}
	}
	return nil
}

// openSink opens the process's event sink: the state directory's
// file-backed flight ring, plus the -trace-out writer when one is asked
// for, stamped with the process name proc. The ring is written on
// every event with no fsync: cheap enough for the hot path, durable
// enough that a kill -9's dirty pages still reach the file via the
// page cache; SIGQUIT dumps it to disk. The returned close flushes the
// trace and closes both files; defer dumpOnPanic after it, so a panic
// is recorded and dumped first.
func openSink(o cliOptions, proc string) (*obs.Sink, *obs.FlightRecorder, func(), error) {
	if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	flight, err := obs.OpenFlightRecorder(filepath.Join(o.stateDir, "flight.ring"),
		obs.DefaultFlightSlots, obs.DefaultFlightSlotSize)
	if err != nil {
		return nil, nil, nil, err
	}
	var tw *obs.TraceWriter
	var f *os.File
	if o.traceOut != "" {
		if f, err = os.Create(o.traceOut); err != nil {
			flight.Close()
			return nil, nil, nil, err
		}
		tw = obs.NewTraceWriter(f)
		tw.SetProcess(proc)
	}
	armSigquit(flight, o.stateDir)
	closeSink := func() {
		flight.Close()
		if f != nil {
			if err := tw.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "gpuscaled: trace:", err)
			}
			f.Close()
		}
	}
	return obs.NewSink(tw, flight), flight, closeSink, nil
}

// dumpPath is where signal- and panic-triggered dumps land.
func dumpPath(stateDir string) string {
	return filepath.Join(stateDir, fmt.Sprintf("flight-%d.dump", os.Getpid()))
}

// armSigquit dumps the flight ring to disk on SIGQUIT without exiting
// — kill -QUIT a wedged daemon to get its recent event history.
func armSigquit(fr *obs.FlightRecorder, stateDir string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			path := dumpPath(stateDir)
			if err := fr.DumpToFile(path, "sigquit"); err != nil {
				fmt.Fprintln(os.Stderr, "gpuscaled: flight dump:", err)
			} else {
				fmt.Fprintln(os.Stderr, "gpuscaled: flight recorder dumped to", path)
			}
		}
	}()
}

// dumpOnPanic must be deferred: it records the panic through the
// sink, dumps the ring, and re-panics so the crash still crashes.
func dumpOnPanic(sink *obs.Sink, fr *obs.FlightRecorder, stateDir string) {
	p := recover()
	if p == nil {
		return
	}
	sink.Emit("panic", "gpuscaled", 0, obs.SpanContext{}, "", time.Now(), 0, obs.KS("panic", fmt.Sprint(p)))
	path := dumpPath(stateDir)
	if err := fr.DumpToFile(path, "panic"); err == nil {
		fmt.Fprintln(os.Stderr, "gpuscaled: flight recorder dumped to", path)
	}
	panic(p)
}

// mountPprof attaches the net/http/pprof handlers explicitly — the
// package's init-time DefaultServeMux registration is useless here
// because the daemon builds its own mux.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// run builds the service, serves it until ctx ends (SIGTERM/SIGINT),
// then drains: readiness flips, in-flight jobs get their grace, the
// HTTP server shuts down cleanly, and unfinished work stays journaled
// for the next start. With -worker it instead joins a coordinator's
// fleet and never serves the job API; with -standby it replicates a
// primary until it promotes, and then serves as the primary.
func run(ctx context.Context, o cliOptions) error {
	if err := checkExecutorFlags(o); err != nil {
		return err
	}
	if o.worker {
		return runWorker(ctx, o)
	}
	if o.standby && o.join == "" {
		return fmt.Errorf("-standby requires -join <primary URL>")
	}
	if !o.standby && o.join != "" {
		return fmt.Errorf("-join only makes sense with -worker or -standby")
	}
	proc := "coordinator"
	if o.standby {
		proc = processName(o)
	}
	sink, flight, closeSink, err := openSink(o, proc)
	if err != nil {
		return err
	}
	defer closeSink()
	defer dumpOnPanic(sink, flight, o.stateDir)

	// One registry feeds /metrics for both the service and, in
	// coordinator mode, the lease protocol; the federation re-exports
	// it (plus every registered worker) as /metrics/fleet.
	reg := obs.NewRegistry()
	fed := obs.NewFederation(reg, nil)
	var coord *dist.Coordinator
	var f *front
	switch {
	case o.standby:
		if coord, f, err = replicate(ctx, o, reg, fed, sink, flight); coord == nil {
			return err
		}
		defer f.srv.Close()
	case o.coordinator:
		coord, err = dist.NewCoordinator(filepath.Join(o.stateDir, "dist"),
			coordinatorOptions(o, splitList(o.peers), reg, fed, sink))
		if err != nil {
			return err
		}
	}
	if coord != nil {
		defer coord.Close()
		// Probe peers once before serving — starting up next to a live
		// newer term must fail fast with the deposed exit code — then
		// keep probing (and self-fencing) in the background.
		if err := coord.StartHA(ctx); err != nil {
			return err
		}
	}
	return serveJobs(ctx, o, f, coord, reg, fed, sink, flight)
}

// coordinatorOptions configures a -coordinator, or the coordinator a
// -standby promotes into; peers are the coordinators whose terms it
// probes.
func coordinatorOptions(o cliOptions, peers []string, reg *obs.Registry, fed *obs.Federation,
	sink *obs.Sink) dist.CoordinatorOptions {
	return dist.CoordinatorOptions{
		ID:         processName(o),
		DefaultTTL: o.leaseTTL, Metrics: reg, Sink: sink,
		OnWorker:       fed.SetTarget,
		VerifyFraction: o.verifyFraction,
		Peers:          peers,
		CheckEvery:     o.heartbeatEvery,
		SelfFenceAfter: o.selfFenceAfter,
		// A quarantined worker leaves the federation too: its target
		// is never scraped again, and fleet_scrape_up pins to 0 so
		// the departure is visible on /metrics/fleet.
		OnQuarantine: func(worker string) {
			fed.Depart(worker)
			fmt.Fprintf(os.Stderr, "gpuscaled: worker %s quarantined and dropped from the federation\n", worker)
		},
	}
}

// fleet is serve's seam onto a coordinator: every admitted job becomes
// a dist job whose rows the fleet leases, appended to the job's one
// journal, which serve owns (its OnRow hook settles each row, and the
// job's trace context makes every lease grant a child span of the job),
// and every record serve writes reaches the standby through Replicate.
// The matrix the coordinator returns is left to it: serve renders a
// job's matrix from the journal.
type fleet struct{ *dist.Coordinator }

func (f fleet) RunSweep(ctx context.Context, req serve.SweepRequest) (*sweep.RunReport, error) {
	_, rep, err := f.Run(ctx, dist.Job{
		Name: req.JobID, Kernels: req.Kernels, Space: req.Space,
		Engine: req.Engine, Seed: req.Seed, NoiseStdDev: req.Noise,
		Journal: req.Journal, OnRow: req.OnRow, Trace: req.Trace,
	})
	return rep, err
}

// front is a daemon's one listener. Its mux can be swapped while it
// serves: a standby answers there as a replica until it promotes, and
// then as the primary.
type front struct {
	ln   net.Listener
	srv  *http.Server
	mux  atomic.Pointer[http.ServeMux]
	errc chan error
}

// listen binds -addr and serves mux there.
func listen(o cliOptions, mux *http.ServeMux) (*front, error) {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, err
	}
	f := &front{ln: ln, errc: make(chan error, 1)}
	f.mux.Store(mux)
	f.srv = obs.Server(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mux.Load().ServeHTTP(w, r)
	}))
	go func() { f.errc <- f.srv.Serve(ln) }()
	return f, nil
}

func (f *front) url() string { return "http://" + f.ln.Addr().String() }

// diagMux starts a mux with the diagnostics every mode serves: the
// flight ring, always, and profiling when asked for.
func diagMux(o cliOptions, flight *obs.FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/flight", obs.FlightHandler(flight))
	if o.pprof {
		mountPprof(mux)
	}
	return mux
}

// serveJobs serves the job API over -state until ctx ends, then
// drains: a plain daemon, a -coordinator (coord non-nil) and a promoted
// standby, which passes the front it already serves on, alike.
func serveJobs(ctx context.Context, o cliOptions, f *front, coord *dist.Coordinator, reg *obs.Registry,
	fed *obs.Federation, sink *obs.Sink, flight *obs.FlightRecorder) error {
	var fl serve.Fleet
	if coord != nil {
		fl = fleet{coord}
	}
	svc, err := serve.New(serve.Config{
		Registry:     reg,
		Fleet:        fl,
		Sink:         sink,
		Dir:          o.stateDir,
		Runners:      o.runners,
		SweepWorkers: o.workers,
		MaxJobs:      o.maxJobs,
		Rate:         o.rate,
		Burst:        o.burst,
		ClientCap:    o.clientCap,
		MaxDeadline:  o.maxDeadline,
		DrainGrace:   o.drainGrace,
		Retries:      o.retries,
		Backoff:      o.backoff,
		SimTimeout:   o.simTimeout,
		Breaker:      o.breaker,
		Injector: fault.Injector{
			ErrorRate: o.faultRate, PanicRate: o.panicRate, TornWriteRate: o.tornRate,
			LatencyRate: o.latencyRate, Latency: o.latency, Seed: o.faultSeed,
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	// Diagnostics ride the same listener as the job API: the flight
	// ring is always fetchable, profiling is opt-in, and coordinator
	// mode adds the lease protocol plus the fleet-wide metrics view.
	mux := diagMux(o, flight)
	if coord != nil {
		mux.Handle("/v1/dist/", coord.Handler())
		mux.Handle("/v1/ha/", coord.Handler())
		mux.Handle("/metrics/fleet", fed.Handler())
	}
	mux.Handle("/", svc.Handler())
	if f != nil {
		f.mux.Store(mux)
	} else {
		if f, err = listen(o, mux); err != nil {
			return err
		}
		mode := ""
		if coord != nil {
			mode = ", coordinating a fleet on /v1/dist/"
		}
		fmt.Fprintf(os.Stderr, "gpuscaled: serving on %s (state in %s%s)\n", f.url(), o.stateDir, mode)
		if o.ready != nil {
			o.ready(f.url())
		}
	}

	var deposed <-chan struct{}
	if coord != nil {
		deposed = coord.Deposed() // nil channel (blocks forever) otherwise
	}
	select {
	case err := <-f.errc:
		return err
	case <-deposed:
		// A newer term is live: every grant and ack this process could
		// make is already fenced, so serving on only confuses clients.
		fmt.Fprintln(os.Stderr, "gpuscaled: deposed — a newer coordinator term is live; exiting")
		f.srv.Close()
		return dist.ErrDeposed
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "gpuscaled: draining")

	// Drain order: stop admitting and finish jobs first (clients polling
	// over HTTP still get answers), then shut the listener down.
	dctx, cancel := context.WithTimeout(context.Background(), o.drainGrace+30*time.Second)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "gpuscaled: drain:", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := f.srv.Shutdown(sctx); err != nil {
		// A keep-alive connection that was dialed but never carried a
		// request sits in StateNew until ReadHeaderTimeout, which races
		// this shutdown budget. Every job is already settled, so
		// force-close the stragglers instead of failing a clean drain.
		f.srv.Close()
		if !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("http shutdown: %w", err)
		}
		fmt.Fprintln(os.Stderr, "gpuscaled: http shutdown timed out; straggler connections closed")
	}
	fmt.Fprintln(os.Stderr, "gpuscaled: drained")
	return nil
}

// processName names this process in term records, leases, traces
// and status probes: -worker-name if given, else host-pid.
func processName(o cliOptions) string {
	if o.workerName != "" {
		return o.workerName
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// replicate runs the warm-replica half of an HA pair: it tails the
// primary into -state, a replica of the primary's state directory,
// and serves term probes and typed 503s
// meanwhile. After -promote-after of primary silence it returns the
// coordinator it promoted into and the front it served on, and run
// starts it there as a -coordinator over the replica. It returns no
// coordinator once ctx ends first.
func replicate(ctx context.Context, o cliOptions, reg *obs.Registry, fed *obs.Federation, sink *obs.Sink,
	flight *obs.FlightRecorder) (*dist.Coordinator, *front, error) {
	primaries := splitList(o.join)
	sb, err := dist.NewStandby(o.stateDir, dist.StandbyOptions{
		ID:           processName(o),
		Primary:      primaries[0],
		PollEvery:    o.heartbeatEvery,
		PromoteAfter: o.promoteAfter,
		Metrics:      reg,
		// After promotion the old primary is a peer to keep probing: if
		// an operator wrongly restarts it as primary, whoever holds the
		// older term steps down.
		Coordinator: coordinatorOptions(o, primaries, reg, fed, sink),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return nil, nil, err
	}
	mux := diagMux(o, flight)
	mux.Handle("/metrics", obs.Handler(reg, nil))
	mux.Handle("/", sb.Handler())
	f, err := listen(o, mux)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "gpuscaled: standby %s on %s replicating %s (state in %s)\n",
		processName(o), f.url(), primaries[0], o.stateDir)
	if o.ready != nil {
		o.ready(f.url())
	}
	coord, err := sb.Run(ctx)
	if coord == nil {
		f.srv.Close()
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "gpuscaled: promoted to primary at term %d\n", coord.Term())
	return coord, f, nil
}

// runWorker joins a coordinator's fleet: acquire a row lease, sweep
// it, report it, repeat until SIGTERM. Its -state holds only the
// flight ring.
// There is no job API and no drain protocol — a worker is crash-only
// by design, so a clean exit and a kill -9 differ only in how fast
// the lease it held gets re-granted.
func runWorker(ctx context.Context, o cliOptions) error {
	if o.join == "" {
		return fmt.Errorf("-worker requires -join <coordinator URL>")
	}
	name := processName(o)
	sink, flight, closeSink, err := openSink(o, name)
	if err != nil {
		return err
	}
	defer closeSink()
	defer dumpOnPanic(sink, flight, o.stateDir)

	// The optional diagnostics listener is what makes a worker a
	// first-class federation member: the coordinator scrapes its
	// /metrics via the URL advertised on every lease acquire.
	reg := obs.NewRegistry()
	metricsURL := ""
	if o.diagAddr != "" {
		dln, err := net.Listen("tcp", o.diagAddr)
		if err != nil {
			return err
		}
		dmux := http.NewServeMux()
		dmux.Handle("/", obs.Handler(reg, nil))
		dmux.Handle("/debug/flight", obs.FlightHandler(flight))
		if o.pprof {
			mountPprof(dmux)
		}
		dsrv := obs.Server(dmux)
		go dsrv.Serve(dln)
		defer dsrv.Close()
		metricsURL = fmt.Sprintf("http://%s/metrics", dln.Addr())
		fmt.Fprintf(os.Stderr, "gpuscaled: worker %s diagnostics on http://%s\n", name, dln.Addr())
	}

	// -join may list several coordinators (primary plus standbys), and
	// -peers appends more; the worker rotates between them on transport
	// failure, 503 not-primary and 409 deposed, so a failover needs no
	// worker restarts.
	peers := append(splitList(o.join), splitList(o.peers)...)
	w, err := dist.NewWorker(dist.WorkerOptions{
		Name:         name,
		Peers:        peers,
		Client:       &http.Client{Timeout: 30 * time.Second},
		SweepWorkers: o.workers,
		Retries:      o.retries,
		Backoff:      o.backoff,
		SimTimeout:   o.simTimeout,
		Sink:         sink,
		Metrics:      reg,
		MetricsURL:   metricsURL,
		Fault: fault.Injector{
			ErrorRate: o.faultRate, PanicRate: o.panicRate, LatencyRate: o.latencyRate, Latency: o.latency,
			CorruptRowRate: o.corruptRate, StaleVersion: o.staleVersion, Seed: o.faultSeed,
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gpuscaled: worker %s joining %s\n", name, o.join)
	err = w.Run(ctx)
	fmt.Fprintf(os.Stderr, "gpuscaled: worker %s stopped\n", name)
	return err
}
