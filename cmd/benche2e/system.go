package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one gpuscaled child process.
type proc struct {
	role string
	dir  string // state directory
	// base is the URL of the job API (primary), the HA surface
	// (standby) or the diagnostics listener (worker).
	base   string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// system is the gpuscaled deployment a node or fleet workload runs
// against. Its processes and state directories live until stop.
type system struct {
	root    string
	procs   []*proc
	primary *proc
	standby *proc // fleet only
	workers []*proc
}

// freeAddr reserves a free loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startSystem spawns the deployment for shape sh under root and waits
// for its ready probes: the primary's /readyz, the standby's
// /v1/ha/status showing it synced, and every worker's /metrics. With a
// non-empty traceDir every process writes <traceDir>/<role>.trace.
func startSystem(ctx context.Context, bin string, sh shape, root, traceDir string) (s *system, err error) {
	s = &system{root: root}
	defer func() {
		if err != nil {
			s.stop()
			s = nil
		}
	}()
	primaryAddr, err := freeAddr()
	if err != nil {
		return s, err
	}
	var standbyAddr string
	args := []string{"-addr", primaryAddr}
	if sh == fleetHA {
		if standbyAddr, err = freeAddr(); err != nil {
			return s, err
		}
		args = append(args, "-coordinator", "-peers", "http://"+standbyAddr)
	}
	if s.primary, err = s.spawn(bin, "primary", "http://"+primaryAddr, traceDir, args...); err != nil {
		return s, err
	}
	// The standby and the workers join a primary that already serves, so
	// their first contact succeeds instead of waiting out a retry delay.
	if err := s.await(ctx, s.primary, func() error { return probeStatus(s.primary.base + "/readyz") }); err != nil {
		return s, err
	}
	if sh != fleetHA {
		return s, nil
	}
	if s.standby, err = s.spawn(bin, "standby", "http://"+standbyAddr, traceDir,
		"-addr", standbyAddr, "-standby", "-join", s.primary.base); err != nil {
		return s, err
	}
	for i := 1; i <= 2; i++ {
		diag, err := freeAddr()
		if err != nil {
			return s, err
		}
		name := fmt.Sprintf("worker%d", i)
		w, err := s.spawn(bin, name, "http://"+diag, traceDir,
			"-worker", "-workers", "1", "-join", s.primary.base+","+s.standby.base,
			"-worker-name", name, "-diag-addr", diag)
		if err != nil {
			return s, err
		}
		s.workers = append(s.workers, w)
	}
	if err := s.await(ctx, s.standby, s.standbySynced); err != nil {
		return s, err
	}
	for _, w := range s.workers {
		if err := s.await(ctx, w, func() error { return probeStatus(w.base + "/metrics") }); err != nil {
			return s, err
		}
	}
	return s, nil
}

// spawn starts one gpuscaled with its own state directory, logging to
// <state>.log. The child dies with the benchmark even if the benchmark
// is killed outright.
func (s *system) spawn(bin, role, base, traceDir string, args ...string) (*proc, error) {
	p := &proc{role: role, dir: filepath.Join(s.root, role), base: base, exited: make(chan struct{})}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	args = append(args, "-state", p.dir)
	if traceDir != "" {
		args = append(args, "-trace-out", filepath.Join(traceDir, role+".trace"))
	}
	log, err := os.Create(p.dir + ".log")
	if err != nil {
		return nil, err
	}
	p.log = log
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = log, log
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	s.procs = append(s.procs, p)
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// gone reports whether the process has exited.
func (p *proc) gone() bool {
	select {
	case <-p.exited:
		return true
	default:
		return false
	}
}

// await polls probe every 5 ms until it passes, the process exits, or
// 30 s pass.
func (s *system) await(ctx context.Context, p *proc, probe func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := probe()
		if err == nil {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during setup (%v):\n%s", p.role, p.err, logTail(p))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s: %v\n%s", p.role, err, logTail(p))
		}
	}
}

// haStatus is the subset of GET /v1/ha/status the probes read.
type haStatus struct {
	Role   string `json:"role"`
	Term   uint64 `json:"term"`
	Cursor int64  `json:"cursor"`
}

func fetchHAStatus(base string) (haStatus, error) {
	var st haStatus
	resp, err := probeClient.Get(base + "/v1/ha/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("ha status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// standbySynced passes once the standby has replicated the primary's
// term and everything the primary has published.
func (s *system) standbySynced() error {
	want, err := fetchHAStatus(s.primary.base)
	if err != nil {
		return err
	}
	got, err := fetchHAStatus(s.standby.base)
	if err != nil {
		return err
	}
	if got.Role != "standby" || got.Term < want.Term || got.Term == 0 || got.Cursor < want.Cursor {
		return fmt.Errorf("standby %s at term %d cursor %d, primary at term %d cursor %d",
			got.Role, got.Term, got.Cursor, want.Term, want.Cursor)
	}
	return nil
}

// probeClient serves setup probes and scrapes, apart from the study
// client's single connection.
var probeClient = &http.Client{Timeout: 10 * time.Second}

func probeStatus(url string) error {
	resp, err := probeClient.Get(url)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return nil
}

// healthy reports why the deployment can no longer be trusted to run
// the study as configured: a process exited (a deposed primary exits
// with code 6), or the standby promoted itself.
func (s *system) healthy() error {
	for _, p := range s.procs {
		if p.gone() {
			return fmt.Errorf("%s exited mid-run (%v)", p.role, p.err)
		}
	}
	if s.standby != nil {
		st, err := fetchHAStatus(s.standby.base)
		if err != nil {
			return fmt.Errorf("standby status: %w", err)
		}
		if st.Role != "standby" {
			return fmt.Errorf("standby promoted itself (role %s, term %d)", st.Role, st.Term)
		}
	}
	return nil
}

// stop terminates every process (SIGTERM, then SIGKILL after 10 s so
// traces get flushed when possible), waits for each, and removes the
// state directories.
func (s *system) stop() {
	for _, p := range s.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range s.procs {
		select {
		case <-p.exited:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-p.exited
		}
		p.log.Close()
	}
	os.RemoveAll(s.root)
}

func logTail(p *proc) string {
	b, err := os.ReadFile(p.log.Name())
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return "  " + strings.Join(lines, "\n  ")
}

// usage is one process's resource counters at an instant.
type usage struct {
	cpuS    float64 // user + system CPU seconds
	hwmMB   float64 // VmHWM, the resident-set high-water mark
	writeMB float64 // bytes written to storage
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100
// on every Linux platform Go supports.
const clockTicks = 100

// readUsage reads a process's counters from /proc/<pid>/{stat,status,io}.
func readUsage(pid int) (usage, error) {
	var u usage
	dir := fmt.Sprintf("/proc/%d/", pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 13 {
		return u, fmt.Errorf("short %sstat", dir)
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	u.cpuS = (utime + stime) / clockTicks
	if u.hwmMB, err = procField(dir+"status", "VmHWM:"); err != nil {
		return u, err
	}
	u.hwmMB /= 1024 // kB
	if u.writeMB, err = procField(dir+"io", "write_bytes:"); err != nil {
		return u, err
	}
	u.writeMB /= 1 << 20
	return u, nil
}

// procField reads the first number after key in a /proc key-value file.
func procField(path, key string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				break
			}
			return strconv.ParseFloat(fs[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so
// setup's allocations do not count toward the window's peak. Memory
// the Go runtime still holds from setup is returned to the OS first;
// otherwise the restarted mark depends on how much of it the
// background scavenger happened to have released.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// scrape fetches a Prometheus text exposition as series -> value.
func scrape(url string) (map[string]float64, error) {
	resp, err := probeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// family sums every series of one metric family.
func family(m map[string]float64, name string) float64 {
	t := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// bucketDelta returns the cumulative buckets of histogram name in
// after minus before.
func bucketDelta(before, after map[string]float64, name string) []bucket {
	var bs []bucket
	for k, v := range after {
		rest, ok := strings.CutPrefix(k, name+"_bucket{")
		if !ok {
			continue
		}
		i := strings.Index(rest, `le="`)
		if i < 0 {
			continue
		}
		le := rest[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le: bound, count: v - before[k]})
	}
	return bs
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if info, err := d.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
