package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"gpuscale/internal/dist"
	"gpuscale/internal/hw"
	"gpuscale/internal/sweep"
)

// setupRepeats is how many times an untraced run sets the system up;
// setup_s is the median.
const setupRepeats = 5

// studyTimeout bounds one study, so a wedged system fails the run
// instead of hanging it.
const studyTimeout = 60 * time.Second

// config is one invocation.
type config struct {
	w          workload
	seed       int64
	window     time.Duration
	minStudies int
	prefix     int // use only the corpus's first prefix kernels (0 = all)
	trace      bool
	gpuscaled  string
	workDir    string
	// deadline is when a window that has passed stops waiting for
	// minStudies, so a slow run still ends in time.
	deadline time.Time
}

// minStudies is how many timed studies a run finishes even after its
// window has passed.
const minStudies = 10

// runLimit is how long after start a run may keep adding studies to
// reach its minimum; a run must end within 180 s.
const runLimit = 140 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		c          config
		name       string
		seconds    float64
		traceLevel int
	)
	flag.StringVar(&name, "workload", "", "workload to run: round-library, round-node, round-fleet-ha or pipeline-fleet-ha")
	flag.Int64Var(&c.seed, "seed", 1, "seed for the corpus order and the job's noise")
	flag.Float64Var(&seconds, "seconds", 0, "timed window in seconds (0 = the workload's own duration)")
	flag.IntVar(&traceLevel, "trace", 0, "1 runs the traced run and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&c.gpuscaled, "gpuscaled", "", "built gpuscaled binary (node and fleet workloads)")
	flag.StringVar(&c.workDir, "workdir", ".bench_build/e2e", "directory for state directories and traces")
	flag.Parse()

	w, err := findWorkload(name)
	if err != nil {
		fail(err)
	}
	c.w, c.trace, c.minStudies = w, traceLevel == 1, minStudies
	c.deadline = time.Now().Add(runLimit)
	c.window = w.duration
	if seconds > 0 {
		c.window = time.Duration(seconds * float64(time.Second))
	}
	if w.shape != library && c.gpuscaled == "" {
		fail(fmt.Errorf("workload %s needs -gpuscaled", w.name))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, c)
	if err != nil {
		fail(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benche2e:", err)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benche2e: "+format+"\n", args...)
}

// run measures one workload. An untraced run reports the end-to-end
// metrics; a traced run spends half its window untraced (for the
// cheap counters and the tracing baseline) and half traced, and
// reports the per-layer metrics.
func run(ctx context.Context, c config) (*result, error) {
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return nil, err
	}
	s, err := buildStudy(c.w, c.seed, c.prefix, false)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(ctx, c.w, c.seed, s)
	if err != nil {
		return nil, err
	}
	logf("%s seed %d: reference matrix sha256 %x", c.w.name, c.seed, ref.digest)
	cells := len(s.kernels) * hw.StudySpace().Size()
	res := &result{Metrics: map[string]metric{}}
	var phases []*phase
	if !c.trace {
		p, err := runPhase(ctx, c, ref, nil, c.window, setupRepeats)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
		endToEnd(res.Metrics, p, cells)
	} else {
		c.window /= 2
		c.minStudies = (c.minStudies + 1) / 2
		base, err := runPhase(ctx, c, ref, nil, c.window, 1)
		if err != nil {
			return nil, err
		}
		traced, err := runPhase(ctx, c, ref, newRecorder(), c.window, 1)
		if err != nil {
			return nil, err
		}
		phases = append(phases, base, traced)
		perLayer(res.Metrics, base, traced, len(s.kernels))
	}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("%-32s %14.6g %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	p := phases[0]
	tail := "the median"
	if q, ok := tailPercentile(len(p.timings), 90); ok {
		tail = fmt.Sprintf("p%d", q)
	}
	logf("%s seed %d: %d timed studies in %.1fs (study_s_p90 reads %s), %d failed",
		c.w.name, c.seed, len(p.timings), p.active, tail, res.Failed)
	return res, nil
}

// phase is one timed window on one set-up system.
type phase struct {
	timings           []*timing // successful timed studies
	attempted, failed int
	active            float64 // the window in seconds, verification excluded
	setups            []float64
	// cpu, write and rss hold the window's CPU seconds, MB written and
	// final VmHWM MB, keyed by primary, standby, workers and client.
	cpu, write, rss         map[string]float64
	goAllocMB, gcCPUFrac    float64
	queueWaitS, leaseGrants float64
	renewP50, replTimeouts  float64
	ledger                  map[string]float64 // records of the timed jobs, by kind
	stateMB                 float64            // state directory growth
	appendsPerRow           float64
	trace                   traceStats
	probes                  []float64 // hostProbe times during the window
}

// runPhase sets the system up, runs one untimed warm-up study, then
// timed studies until window has passed and at least c.minStudies have
// finished. A non-nil rec makes it the traced phase.
func runPhase(ctx context.Context, c config, ref *reference, rec *recorder, window time.Duration, setups int) (p *phase, err error) {
	p = &phase{cpu: map[string]float64{}, write: map[string]float64{}, rss: map[string]float64{}, ledger: map[string]float64{}}
	root := filepath.Join(c.workDir, fmt.Sprintf("state-%d", os.Getpid()))
	traceDir := ""
	if rec != nil {
		traceDir = filepath.Join(c.workDir, "trace-"+c.w.name)
		os.RemoveAll(traceDir)
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	var sys *system
	defer func() {
		if sys != nil {
			sys.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.stop()
			sys = nil
		}
		t0 := time.Now()
		if c.w.shape != library {
			if sys, err = startSystem(ctx, c.gpuscaled, c.w.shape, root, traceDir); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		if _, err := buildStudy(c.w, c.seed, c.prefix, c.w.shape != library); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	base := ""
	if sys != nil {
		base = sys.primary.base
	}
	cl := newClient(c.w, c.seed, c.prefix, rec, base)
	defer cl.close()

	if _, _, err := attempt(ctx, cl, ref, sys); err != nil {
		p.attempted++
		p.failed++
		logf("%s seed %d: warm-up study failed: %v", c.w.name, c.seed, err)
	}
	if err := resetPeakRSS(); err != nil {
		logf("resetting the peak RSS: %v", err)
	}
	before, err := takeSnapshot(sys)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var paused time.Duration
	var lastProbe time.Time
	for tried := 0; time.Since(start)-paused < window || tried < c.minStudies; tried++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if time.Since(start)-paused >= window && time.Now().After(c.deadline) {
			logf("%s seed %d: stopping after %d studies to end within the run's time limit", c.w.name, c.seed, tried)
			break
		}
		p.attempted++
		t, pause, err := attempt(ctx, cl, ref, sys)
		paused += pause
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Since(lastProbe) >= probeEvery {
			lastProbe = time.Now()
			p.probes = append(p.probes, hostProbe())
			paused += time.Since(lastProbe)
		}
		if err != nil {
			p.failed++
			logf("%s seed %d: study %d failed: %v", c.w.name, c.seed, p.attempted, err)
			if sys != nil && sys.healthy() != nil {
				break
			}
			continue
		}
		p.timings = append(p.timings, t)
		if len(p.timings) == c.minStudies {
			// gpuscaled keeps every finished job in memory, so its RSS grows
			// with the study count; reading the peak after a fixed count
			// keeps runs of different speed comparable.
			t0 := time.Now()
			if p.rss, err = peakRSS(sys); err != nil {
				return nil, err
			}
			paused += time.Since(t0)
		}
	}
	p.active = (time.Since(start) - paused).Seconds()
	after, err := takeSnapshot(sys)
	if err != nil {
		return nil, err
	}
	p.account(before, after)
	if sys != nil && len(p.timings) > 0 {
		if err := p.readState(sys, len(ref.names)); err != nil {
			return nil, err
		}
	}
	if rec == nil {
		return p, nil
	}
	// Stopping flushes every process's trace before it is read.
	if sys != nil {
		sys.stop()
		sys = nil
	}
	if err := rec.write(traceDir); err != nil {
		return nil, fmt.Errorf("writing the client trace: %w", err)
	}
	files, err := readTraces(traceDir)
	if err != nil {
		return nil, err
	}
	timed := map[string]bool{}
	for _, t := range p.timings {
		timed[t.trace] = true
	}
	workers := 0
	if c.w.shape == fleetHA {
		workers = 2
	}
	p.trace = analyzeTraces(files, timed, len(ref.names)*hw.StudySpace().Size(), workers)
	logf("trace files in %s (stitch them with: sweeptrace -stitch %s/*.trace)", traceDir, traceDir)
	return p, nil
}

// attempt runs and verifies one study. pause is the time spent on
// verification and health checks, which the window does not count.
func attempt(ctx context.Context, cl *client, ref *reference, sys *system) (t *timing, pause time.Duration, err error) {
	sctx, cancel := context.WithTimeout(ctx, studyTimeout)
	defer cancel()
	t, m, cls, err := cl.study(sctx)
	v0 := time.Now()
	if err == nil {
		err = ref.verify(m, cls)
	}
	if err == nil && sys != nil {
		err = sys.healthy()
	}
	return t, time.Since(v0), err
}

// snapshot is the counters read at a window edge.
type snapshot struct {
	usage   map[string]usage              // by process role, "client" included
	scrapes map[string]map[string]float64 // /metrics by process role
	stateMB float64
	runtime []metrics.Sample
}

var runtimeMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func takeSnapshot(sys *system) (snapshot, error) {
	s := snapshot{usage: map[string]usage{}, scrapes: map[string]map[string]float64{}}
	s.runtime = make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s.runtime[i].Name = n
	}
	metrics.Read(s.runtime)
	u, err := readUsage(os.Getpid())
	if err != nil {
		return s, err
	}
	s.usage["client"] = u
	if sys == nil {
		return s, nil
	}
	// A process that exited mid-run has already failed the run; the
	// snapshot skips it so the run can still report.
	for _, p := range sys.procs {
		if s.usage[p.role], err = readUsage(p.cmd.Process.Pid); err != nil {
			if p.gone() {
				continue
			}
			return s, err
		}
		if p.role == "standby" {
			continue
		}
		if s.scrapes[p.role], err = scrape(p.base + "/metrics"); err != nil && !p.gone() {
			return s, err
		}
	}
	s.stateMB = dirMB(sys.root)
	return s, nil
}

// peakRSS reads the VmHWM of the client and every gpuscaled, in MB by
// metric group.
func peakRSS(sys *system) (map[string]float64, error) {
	u, err := readUsage(os.Getpid())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"client": u.hwmMB}
	if sys == nil {
		return out, nil
	}
	for _, p := range sys.procs {
		if u, err = readUsage(p.cmd.Process.Pid); err != nil {
			if p.gone() {
				continue
			}
			return nil, err
		}
		out[group(p.role)] += u.hwmMB
	}
	return out, nil
}

// group maps a process role onto its metric group.
func group(role string) string {
	if strings.HasPrefix(role, "worker") {
		return "workers"
	}
	return role
}

// account turns the window-edge snapshots into the phase's totals.
func (p *phase) account(before, after snapshot) {
	for role, a := range after.usage {
		b := before.usage[role]
		g := group(role)
		if role != "client" {
			p.cpu[g] += a.cpuS - b.cpuS
		}
		p.write[g] += a.writeMB - b.writeMB
	}
	if len(p.rss) == 0 { // the run ended before minStudies studies
		for role, a := range after.usage {
			p.rss[group(role)] += a.hwmMB
		}
	}
	// The client's share is its CPU inside studies: verifying results
	// is the benchmark's work, not the system's.
	for _, t := range p.timings {
		p.cpu["client"] += t.cpuS
	}
	delta := func(i int) float64 {
		return after.runtime[i].Value.Float64() - before.runtime[i].Value.Float64()
	}
	if n := float64(len(p.timings)); n > 0 {
		p.goAllocMB = float64(after.runtime[0].Value.Uint64()-before.runtime[0].Value.Uint64()) / (1 << 20) / n
		p.stateMB = (after.stateMB - before.stateMB) / n
	}
	if total := delta(2); total > 0 {
		p.gcCPUFrac = delta(1) / total
	}
	if pb, pa := before.scrapes["primary"], after.scrapes["primary"]; pa != nil {
		if dc := family(pa, "serve_queue_wait_seconds_count") - family(pb, "serve_queue_wait_seconds_count"); dc > 0 {
			p.queueWaitS = (family(pa, "serve_queue_wait_seconds_sum") - family(pb, "serve_queue_wait_seconds_sum")) / dc
		}
		p.leaseGrants = family(pa, "dist_leases_granted_total") - family(pb, "dist_leases_granted_total")
		p.replTimeouts = family(pa, "dist_repl_sync_timeouts_total") - family(pb, "dist_repl_sync_timeouts_total")
	}
	merged := map[float64]float64{}
	for role, a := range after.scrapes {
		if group(role) == "workers" {
			for _, b := range bucketDelta(before.scrapes[role], a, "dist_worker_renew_seconds") {
				merged[b.le] += b.count
			}
		}
	}
	var bs []bucket
	for le, n := range merged {
		bs = append(bs, bucket{le, n})
	}
	p.renewP50 = histQuantile(bs, 0.5)
}

// readState reads what the timed studies left on disk: the lease
// ledger's records per kind, and how many journals hold each row of
// the last study.
func (p *phase) readState(sys *system, rows int) error {
	jobs := map[string]bool{}
	for _, t := range p.timings {
		jobs[t.job] = true
	}
	if sys.standby != nil {
		recs, err := dist.ReadLedger(filepath.Join(sys.primary.dir, "dist", "lease.ledger"))
		if err != nil {
			return err
		}
		for _, r := range recs {
			if jobs[r.Job] {
				p.ledger[r.Kind]++
				p.ledger["all"]++
			}
		}
	}
	last := p.timings[len(p.timings)-1].job
	var appends int
	err := filepath.WalkDir(sys.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != last+".journal" {
			return err
		}
		m, err := sweep.ReadJournal(path, hw.StudySpace())
		if err != nil {
			return err
		}
		if m != nil {
			appends += len(m.Kernels)
		}
		return nil
	})
	p.appendsPerRow = float64(appends) / float64(rows)
	return err
}

// hostScale converts this phase's times to the reference host's speed:
// probeRef over the median probe time.
func (p *phase) hostScale() float64 {
	if len(p.probes) == 0 {
		return 1
	}
	return probeRef / median(p.probes)
}

// endToEnd fills the untraced run's metrics. Times and CPU are scaled
// to the reference host's speed; the unscaled values go to stderr.
func endToEnd(out map[string]metric, p *phase, cells int) {
	studies := p.column(func(t *timing) float64 { return t.study })
	n := float64(len(studies))
	p90 := median(studies)
	if q, ok := tailPercentile(len(studies), 90); ok {
		p90 = percentile(studies, q)
	}
	cpu, rss := 0.0, 0.0
	for _, v := range p.cpu {
		cpu += v
	}
	for _, v := range p.rss {
		rss += v
	}
	cellsPerS, cpuPerStudy := 0.0, 0.0
	if n > 0 {
		cellsPerS, cpuPerStudy = n*float64(cells)/p.active, cpu/n
	}
	scale := p.hostScale()
	logf("host probe %.2f ms, times scaled by %.4f; unscaled: study_s_p50 %.6g, study_s_p90 %.6g, setup_s %.6g, cpu_s_per_study %.6g, cells_per_s %.6g",
		1e3*median(p.probes), scale, median(studies), p90, median(p.setups), cpuPerStudy, cellsPerS)
	logf("peak RSS MB: client %.1f, primary %.1f, standby %.1f, workers %.1f",
		p.rss["client"], p.rss["primary"], p.rss["standby"], p.rss["workers"])
	out["study_s_p50"] = metric{median(studies) * scale, "s"}
	out["study_s_p90"] = metric{p90 * scale, "s"}
	out["setup_s"] = metric{median(p.setups) * scale, "s"}
	out["cpu_s_per_study"] = metric{cpuPerStudy * scale, "s"}
	out["cells_per_s"] = metric{cellsPerS / scale, "cells/s"}
	out["peak_rss_mb"] = metric{rss, "MB"}
}

// perLayer fills the traced run's metrics: cheap counters and per-study
// times from the untraced half, span-derived ones from the traced half.
func perLayer(out map[string]metric, base, traced *phase, rows int) {
	med := func(f func(*timing) float64) float64 { return median(base.column(f)) }
	n := float64(len(base.timings))
	perStudy := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	perRow := func(x float64) float64 { return perStudy(x) / float64(rows) }
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	set("suites.corpus_s", "s", med(func(t *timing) float64 { return t.corpus }))
	set("gcn.prepare_s", "s", traced.trace.prepareS)
	set("gcn.eval_s", "s", traced.trace.evalS)
	set("gcn.ns_per_cell", "ns", traced.trace.nsPerCell)
	set("sweep.run_s", "s", med(func(t *timing) float64 { return t.sweepRun }))
	set("sweep.csv_parse_s", "s", med(func(t *timing) float64 { return t.parse }))
	set("sweep.journal_appends_per_row", "count", base.appendsPerRow)
	set("core.classify_s", "s", med(func(t *timing) float64 { return t.classify }))
	set("serve.submit_s", "s", med(func(t *timing) float64 { return t.submit }))
	set("serve.run_s", "s", med(func(t *timing) float64 { return t.run }))
	set("serve.queue_wait_s", "s", base.queueWaitS)
	set("serve.matrix_fetch_s", "s", med(func(t *timing) float64 { return t.fetch }))
	set("serve.matrix_mb", "MB", med(func(t *timing) float64 { return t.matrixMB }))
	set("serve.state_mb_per_study", "MB", base.stateMB)
	set("dist.leases_per_row", "count", perRow(base.leaseGrants))
	set("dist.ledger_records_per_row", "count", perRow(base.ledger["all"]))
	set("dist.ledger_grants_per_row", "count", perRow(base.ledger["grant"]))
	set("dist.ledger_completes_per_row", "count", perRow(base.ledger["complete"]))
	set("dist.renew_s_p50", "s", base.renewP50)
	set("dist.repl_sync_timeouts", "count", base.replTimeouts)
	set("dist.row_s_p50", "s", traced.trace.rowP50)
	set("dist.row_s_max", "s", traced.trace.rowMax)
	set("dist.worker_idle_frac", "ratio", traced.trace.workerIdleFrac)
	set("dist.lease_gap_s_p50", "s", traced.trace.leaseGapP50)
	for _, g := range []string{"primary", "standby", "workers", "client"} {
		set("proc."+g+"_cpu_s", "s", perStudy(base.cpu[g]))
		set("proc."+g+"_rss_mb", "MB", base.rss[g])
		set("proc."+g+"_write_mb", "MB", perStudy(base.write[g]))
	}
	// The halves run at different moments, so each is taken at the
	// reference host's speed before they are compared.
	overhead := 0.0
	if b := med(func(t *timing) float64 { return t.study }) * base.hostScale(); b > 0 {
		overhead = median(traced.column(func(t *timing) float64 { return t.study })) * traced.hostScale() / b
	}
	set("obs.trace_overhead", "ratio", overhead)
	set("host.probe_ms", "ms", 1e3*median(base.probes))
	set("obs.unattributed_frac", "ratio", traced.trace.unattributedFrac)
	set("go.alloc_mb_per_study", "MB", base.goAllocMB)
	set("go.gc_cpu_frac", "ratio", base.gcCPUFrac)
}

func (p *phase) column(f func(*timing) float64) []float64 {
	out := make([]float64, len(p.timings))
	for i, t := range p.timings {
		out[i] = f(t)
	}
	return out
}
