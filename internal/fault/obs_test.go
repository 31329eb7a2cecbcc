package fault

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"gpuscale/internal/obs"
)

func TestOnDecisionFiresForEveryFault(t *testing.T) {
	ks, cfgs := testCells(t)
	var mu sync.Mutex
	var decisions []Decision
	in := Injector{
		ErrorRate: 0.15, CorruptRate: 0.15, Seed: 3,
		OnDecision: func(d Decision) {
			mu.Lock()
			decisions = append(decisions, d)
			mu.Unlock()
		},
	}
	eng := wrapCell(in)
	faults := 0
	for _, k := range ks {
		for _, cfg := range cfgs {
			r, err := eng(k, cfg)
			if err != nil || !(r.Throughput > 0) || math.IsInf(r.Throughput, 0) {
				faults++
			}
		}
	}
	if faults == 0 {
		t.Fatal("30% combined rate fired nothing; test proves nothing")
	}
	if len(decisions) != faults {
		t.Fatalf("hook saw %d decisions, outcomes show %d faults", len(decisions), faults)
	}
	for _, d := range decisions {
		if d.Kernel == "" || (d.Kind != KindError && d.Kind != KindCorrupt) {
			t.Fatalf("malformed decision %+v", d)
		}
	}
}

func TestOnDecisionDoesNotChangeFaultPattern(t *testing.T) {
	ks, cfgs := testCells(t)
	base := Injector{ErrorRate: 0.2, Seed: 9}
	hooked := base
	hooked.OnDecision = func(Decision) {}
	a := faultPattern(t, base, ks, cfgs)
	b := faultPattern(t, hooked, ks, cfgs)
	for cell, fa := range a {
		if b[cell] != fa {
			t.Fatalf("hook changed fault pattern at %s", cell)
		}
	}
}

func TestObserveCountsByKindAndEmitsSpans(t *testing.T) {
	ks, cfgs := testCells(t)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	in := Injector{ErrorRate: 0.1, CorruptRate: 0.1, Seed: 7, OnDecision: Observe(reg, obs.NewSink(tw, nil))}
	eng := wrapCell(in)
	for _, k := range ks {
		for _, cfg := range cfgs {
			eng(k, cfg) //nolint:errcheck // outcomes audited via counters
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	errs := reg.Counter(MetricInjected, "", obs.L("kind", "error")).Value()
	corrupts := reg.Counter(MetricInjected, "", obs.L("kind", "corrupt")).Value()
	if errs == 0 || corrupts == 0 {
		t.Fatalf("counters: error=%d corrupt=%d, want both > 0", errs, corrupts)
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := uint64(0)
	for _, e := range evs {
		if e.Name != "fault" || e.Phase != "i" {
			t.Fatalf("unexpected event %+v", e)
		}
		if e.Args["kernel"] == nil || e.Args["kind"] == nil {
			t.Fatalf("fault span missing keys: %v", e.Args)
		}
		spans++
	}
	if spans != errs+corrupts {
		t.Fatalf("%d spans for %d counted faults", spans, errs+corrupts)
	}
	// A stall series exists at zero even though none fired.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `fault_injected_total{kind="stall"} 0`) {
		t.Fatalf("stall series not pre-registered:\n%s", sb.String())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindError: "error", KindCorrupt: "corrupt", KindStall: "stall",
		KindWriteErr: "write-error", KindCorruptRow: "corrupt-row", Kind(99): "kind(99)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
