package gcn

import (
	"errors"
	"strings"
	"testing"

	"gpuscale/internal/hw"
	"gpuscale/internal/isa"
	"gpuscale/internal/kernel"
	"gpuscale/internal/suites"
)

func mustSimPipeline(t *testing.T, k *kernel.Kernel, cfg hw.Config) Result {
	t.Helper()
	r, err := SimulatePipeline(k, cfg)
	if err != nil {
		t.Fatalf("SimulatePipeline(%s, %v): %v", k.Name, cfg, err)
	}
	return r
}

func TestPipelinePureComputeIPC(t *testing.T) {
	// With many waves and no memory, the vector port must stay busy:
	// cycles ~= total VALU+LDS instructions in the resident set.
	prog := &isa.Program{Name: "pure", Body: []isa.Instr{
		{Op: isa.OpVALU, Count: 1000},
		{Op: isa.OpEnd, Count: 1},
	}}
	cycles, err := simulateResidentSet(prog, 8, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(8 * 4 * 1000)
	if cycles < want || cycles > want+want/10 {
		t.Errorf("cycles = %d, want ~%d (vector port saturated)", cycles, want)
	}
}

func TestPipelineScoreboardStallsDependentLoads(t *testing.T) {
	// A fully dependent chain of loads serialises on latency; an
	// independent stream of the same loads pipelines.
	mk := func(dep bool) *isa.Program {
		var body []isa.Instr
		for i := 0; i < 50; i++ {
			body = append(body, isa.Instr{Op: isa.OpLoad, Count: 1, DependsOnLoad: dep})
		}
		body = append(body, isa.Instr{Op: isa.OpEnd, Count: 1})
		return &isa.Program{Name: "chain", Body: body}
	}
	const lat = 300
	serial, err := simulateResidentSet(mk(true), 1, 1, lat)
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := simulateResidentSet(mk(false), 1, 1, lat)
	if err != nil {
		t.Fatal(err)
	}
	if serial < 50*lat {
		t.Errorf("dependent chain took %d cycles, want >= %d", serial, 50*lat)
	}
	if pipelined > serial/10 {
		t.Errorf("independent loads took %d cycles vs serial %d: no pipelining", pipelined, serial)
	}
}

func TestPipelineMultiWaveLatencyHiding(t *testing.T) {
	// One wave alternating load->dependent compute stalls; many waves
	// interleave and hide each other's latency.
	prog := func() *isa.Program {
		var body []isa.Instr
		for i := 0; i < 20; i++ {
			body = append(body,
				isa.Instr{Op: isa.OpLoad, Count: 1},
				isa.Instr{Op: isa.OpVALU, Count: 40, DependsOnLoad: true},
			)
		}
		body = append(body, isa.Instr{Op: isa.OpEnd, Count: 1})
		return &isa.Program{Name: "alt", Body: body}
	}()
	const lat = 300
	one, err := simulateResidentSet(prog, 1, 1, lat)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := simulateResidentSet(prog, 10, 1, lat)
	if err != nil {
		t.Fatal(err)
	}
	perWaveOne := float64(one)
	perWaveTen := float64(ten) / 10
	if perWaveTen > perWaveOne*0.5 {
		t.Errorf("10-wave per-wave cost %.0f vs solo %.0f: latency not hidden",
			perWaveTen, perWaveOne)
	}
}

func TestPipelineBarrierSynchronises(t *testing.T) {
	// Barriers force the workgroup's waves into lockstep; with the
	// vector port shared, a barrier between compute blocks must not
	// deadlock and must cost at least the no-barrier time.
	withBar := &isa.Program{Name: "bar", Body: []isa.Instr{
		{Op: isa.OpVALU, Count: 100},
		{Op: isa.OpBarrier, Count: 1},
		{Op: isa.OpVALU, Count: 100},
		{Op: isa.OpEnd, Count: 1},
	}}
	noBar := &isa.Program{Name: "nobar", Body: []isa.Instr{
		{Op: isa.OpVALU, Count: 200},
		{Op: isa.OpEnd, Count: 1},
	}}
	with, err := simulateResidentSet(withBar, 2, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	without, err := simulateResidentSet(noBar, 2, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	if with < without {
		t.Errorf("barrier program (%d cycles) faster than barrier-free (%d)", with, without)
	}
	if with < 2*4*200 {
		t.Errorf("barrier program finished in %d cycles, below issue floor %d", with, 2*4*200)
	}
}

func TestPipelineBarrierZeroCountValidates(t *testing.T) {
	p := &isa.Program{Name: "z", Body: []isa.Instr{
		{Op: isa.OpBarrier, Count: 0},
		{Op: isa.OpEnd, Count: 1},
	}}
	if _, err := simulateResidentSet(p, 1, 1, 10); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestPipelineMatchesRoundOnArchetypes(t *testing.T) {
	kernels := []*kernel.Kernel{
		smaller(computeBoundKernel(), 256),
		smaller(bandwidthBoundKernel(), 256),
		smaller(latencyBoundKernel(), 128),
	}
	for _, k := range kernels {
		for _, cfg := range []hw.Config{hw.Reference(), cfgWith(20, 600, 700)} {
			round := mustSim(t, k, cfg)
			pipe := mustSimPipeline(t, k, cfg)
			ratio := pipe.KernelNS / round.KernelNS
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%s@%v: pipeline/round = %.2f (pipe %.0f ns, round %.0f ns)",
					k.Name, cfg, ratio, pipe.KernelNS, round.KernelNS)
			}
		}
	}
}

func TestPipelineScalingDirections(t *testing.T) {
	comp := smaller(computeBoundKernel(), 256)
	base := mustSimPipeline(t, comp, cfgWith(22, 500, 1250))
	fast := mustSimPipeline(t, comp, cfgWith(22, 1000, 1250))
	if r := fast.Throughput / base.Throughput; r < 1.7 || r > 2.3 {
		t.Errorf("2x clock speedup = %.2f, want ~2", r)
	}
	bw := smaller(bandwidthBoundKernel(), 256)
	slow := mustSimPipeline(t, bw, cfgWith(44, 1000, 300))
	fastM := mustSimPipeline(t, bw, cfgWith(44, 1000, 1200))
	if r := fastM.Throughput / slow.Throughput; r < 2.5 {
		t.Errorf("4x mem speedup = %.2f, want material", r)
	}
}

func TestPipelineErrors(t *testing.T) {
	bad := computeBoundKernel()
	bad.VALUPerWave = 0
	if _, err := SimulatePipeline(bad, hw.Reference()); err == nil {
		t.Error("invalid kernel accepted")
	}
	if _, err := SimulatePipeline(computeBoundKernel(), hw.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	huge := computeBoundKernel()
	huge.SGPRsPerWave = 512
	huge.WGSize = 1024
	if _, err := SimulatePipeline(huge, hw.Reference()); !errors.Is(err, ErrDoesNotFit) {
		t.Errorf("SimulatePipeline = %v, want ErrDoesNotFit", err)
	}
}

func TestPipelineDeterministic(t *testing.T) {
	k := smaller(bandwidthBoundKernel(), 64)
	a := mustSimPipeline(t, k, cfgWith(20, 700, 700))
	b := mustSimPipeline(t, k, cfgWith(20, 700, 700))
	if a.KernelNS != b.KernelNS {
		t.Fatalf("non-deterministic: %g vs %g", a.KernelNS, b.KernelNS)
	}
}

func TestSchedulerPolicies(t *testing.T) {
	// Build a latency-mix program and run both policies; both must
	// drain the same work, and GTO's greedy draining must not beat the
	// theoretical issue floor.
	var body []isa.Instr
	for i := 0; i < 10; i++ {
		body = append(body,
			isa.Instr{Op: isa.OpLoad, Count: 2},
			isa.Instr{Op: isa.OpVALU, Count: 60, DependsOnLoad: true},
		)
	}
	body = append(body, isa.Instr{Op: isa.OpEnd, Count: 1})
	prog := &isa.Program{Name: "mix", Body: body}

	rr, err := SimulateResidentSetPolicy(prog, 4, 4, 300, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	gto, err := SimulateResidentSetPolicy(prog, 4, 4, 300, GreedyThenOldest)
	if err != nil {
		t.Fatal(err)
	}
	floor := int64(4 * 4 * 600) // total VALU instructions
	if rr < floor || gto < floor {
		t.Fatalf("policy beat the issue floor: rr=%d gto=%d floor=%d", rr, gto, floor)
	}
	// The policies differ in interleaving but must land within 2x of
	// each other on this workload.
	hi, lo := rr, gto
	if hi < lo {
		hi, lo = lo, hi
	}
	if hi > 2*lo {
		t.Errorf("policies diverge wildly: rr=%d gto=%d", rr, gto)
	}
}

func TestSchedPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || GreedyThenOldest.String() != "gto" {
		t.Error("policy names wrong")
	}
}

// TestResidentSetLineStopsShortOfRunaway holds a row's memo to the
// runaway guard: a line certified at a study latency must not answer a
// latency at which a run stops with "ran away". The corpus's first
// pointer-chase row rises 2,368 cycles per cycle of latency, so its
// runs pass the guard's 2^40 cycles near a latency of 4.6·10^8; its
// line ends at the last latency a run completes at.
func TestResidentSetLineStopsShortOfRunaway(t *testing.T) {
	var k *kernel.Kernel
	for _, e := range suites.AllEntries(suites.Corpus()) {
		if e.Archetype == suites.PointerChase {
			k = e.Kernel
			break
		}
	}
	p, err := Prepare(k)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.program()
	if err != nil {
		t.Fatal(err)
	}
	wgs, waves := min(p.occWGs, k.Workgroups), p.der.WavesPerWG
	if _, err := p.residentSetCycles(prog, wgs, waves, 400, RoundRobin); err != nil {
		t.Fatal(err)
	}
	line := p.rsLines[rsKey{wgs, waves, RoundRobin}][0]
	if line.k != 2368 {
		t.Fatalf("%s: the line rises %d cycles per cycle of latency, want 2,368", k.Name, line.k)
	}
	for _, latency := range []int64{line.hi, line.hi + 1, 500_000_000} {
		want, runErr := SimulateResidentSetPolicy(prog, wgs, waves, latency, RoundRobin)
		got, err := p.residentSetCycles(prog, wgs, waves, latency, RoundRobin)
		switch {
		case runErr == nil && (err != nil || got != want):
			t.Errorf("%s latency %d: the memo answers %d cycles (%v), a run %d", k.Name, latency, got, err, want)
		case runErr != nil && (err == nil || !strings.Contains(runErr.Error(), "ran away")):
			t.Errorf("%s latency %d: a run stops (%v), the memo answers %d cycles (%v)", k.Name, latency, runErr, got, err)
		case runErr == nil && latency > line.hi:
			t.Errorf("%s latency %d, past the line's end %d: a run completes in %d cycles", k.Name, latency, line.hi, want)
		}
	}
}
