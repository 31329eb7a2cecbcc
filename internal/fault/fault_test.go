package fault

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

func testCells(t *testing.T) ([]*kernel.Kernel, []hw.Config) {
	t.Helper()
	space, err := hw.NewSpace([]int{4, 24, 44}, []float64{200, 600, 1000}, []float64{150, 700, 1250})
	if err != nil {
		t.Fatal(err)
	}
	ks := []*kernel.Kernel{
		kernel.New("s", "p", "a").Geometry(512, 256).MustBuild(),
		kernel.New("s", "p", "b").Geometry(512, 256).Compute(30000, 100).MustBuild(),
	}
	return ks, space.Configs()
}

// cellEngine runs one cell at a time through in.WrapRow over the
// round engine, as one-element batches on freshly prepared rows. The
// injector's attempt counters live in the wrapped engine, so repeated
// calls on one cell advance its stream exactly like sweep retries.
type cellEngine func(*kernel.Kernel, hw.Config) (gcn.Result, error)

func wrapCell(in Injector) cellEngine {
	return wrapCellBudget(in, context.Background(), 0)
}

// wrapCellBudget is wrapCell with every row's budget armed.
func wrapCellBudget(in Injector, ctx context.Context, perCell time.Duration) cellEngine {
	re := in.WrapRow(gcn.RoundRow)
	return func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
		row, err := re.PrepareRow(k)
		if err != nil {
			return gcn.Result{}, err
		}
		row.SetBudget(ctx, perCell)
		out, errs := make([]gcn.Result, 1), make([]error, 1)
		if err := row.EvalBatch([]hw.Config{cfg}, out, errs); err != nil {
			return gcn.Result{}, err
		}
		return out[0], errs[0]
	}
}

// faultPattern sweeps every cell once through a fresh wrap and records
// which cells errored.
func faultPattern(t *testing.T, in Injector, ks []*kernel.Kernel, cfgs []hw.Config) map[string]bool {
	t.Helper()
	eng := wrapCell(in)
	out := map[string]bool{}
	for _, k := range ks {
		for _, cfg := range cfgs {
			_, err := eng(k, cfg)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected non-injected error: %v", err)
			}
			out[cellKey(k.Name, cfg)] = err != nil
		}
	}
	return out
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	ks, cfgs := testCells(t)
	in := Injector{ErrorRate: 0.3, Seed: 7}
	a := faultPattern(t, in, ks, cfgs)
	b := faultPattern(t, in, ks, cfgs)
	same := true
	for k, v := range a {
		if b[k] != v {
			same = false
		}
	}
	if !same {
		t.Fatal("same seed produced different fault patterns")
	}
	c := faultPattern(t, Injector{ErrorRate: 0.3, Seed: 8}, ks, cfgs)
	diff := false
	for k, v := range a {
		if c[k] != v {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical fault patterns")
	}
}

func TestInjectorRateRoughlyHonoured(t *testing.T) {
	ks, cfgs := testCells(t)
	in := Injector{ErrorRate: 0.25, Seed: 3}
	pat := faultPattern(t, in, ks, cfgs)
	n, failed := 0, 0
	for _, v := range pat {
		n++
		if v {
			failed++
		}
	}
	frac := float64(failed) / float64(n)
	if frac < 0.10 || frac > 0.45 {
		t.Fatalf("fault fraction %.3f far from configured 0.25 (%d/%d)", frac, failed, n)
	}
}

func TestInjectorRetrySeesIndependentRoll(t *testing.T) {
	ks, cfgs := testCells(t)
	// With a 50% error rate, some cell must fail on attempt 0 and
	// succeed on attempt 1 within a handful of cells.
	eng := wrapCell(Injector{ErrorRate: 0.5, Seed: 1})
	recovered := false
	for _, k := range ks {
		for _, cfg := range cfgs {
			_, err0 := eng(k, cfg)
			_, err1 := eng(k, cfg)
			if err0 != nil && err1 == nil {
				recovered = true
			}
		}
	}
	if !recovered {
		t.Fatal("no cell recovered on retry: attempt number not advancing the fault stream")
	}
}

func TestInjectorCorruptsResults(t *testing.T) {
	ks, cfgs := testCells(t)
	eng := wrapCell(Injector{CorruptRate: 1, Seed: 2})
	sawNaN, sawNeg, sawInf := false, false, false
	for _, k := range ks {
		for _, cfg := range cfgs {
			r, err := eng(k, cfg)
			if err != nil {
				t.Fatalf("corruption must not error: %v", err)
			}
			switch {
			case math.IsNaN(r.Throughput):
				sawNaN = true
			case math.IsInf(r.Throughput, 1):
				sawInf = true
			case r.Throughput < 0:
				sawNeg = true
			default:
				t.Fatalf("CorruptRate 1 returned a clean throughput %g", r.Throughput)
			}
		}
	}
	if !sawNaN || !sawNeg || !sawInf {
		t.Fatalf("corruption modes not all exercised: nan=%v neg=%v inf=%v", sawNaN, sawNeg, sawInf)
	}
}

func TestInjectorStalls(t *testing.T) {
	ks, cfgs := testCells(t)
	in := Injector{StallRate: 1, Stall: 20 * time.Millisecond, Seed: 4}
	start := time.Now()
	if _, err := wrapCell(in)(ks[0], cfgs[0]); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("stalled call returned in %v, want >= 20ms", d)
	}
	// The stall is cooperative: a shorter per-cell budget ends it with
	// a timeout, and a canceled context ends it at once.
	in.Stall = time.Minute
	start = time.Now()
	if _, err := wrapCellBudget(in, context.Background(), 5*time.Millisecond)(ks[0], cfgs[0]); !errors.Is(err, gcn.ErrSimTimeout) {
		t.Fatalf("stall under a 5ms budget: err = %v, want gcn.ErrSimTimeout", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := wrapCellBudget(in, ctx, 0)(ks[0], cfgs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("stall under a canceled context: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("budgeted stalls took %v; they ran to completion", d)
	}
}

func TestInjectorLatencyIsDeterministicAndBounded(t *testing.T) {
	ks, cfgs := testCells(t)
	const max = 40 * time.Millisecond
	var decisions []Decision
	in := Injector{LatencyRate: 1, Latency: max, Seed: 5,
		OnDecision: func(d Decision) { decisions = append(decisions, d) }}
	eng := wrapCell(in)
	// Same cell, fresh wraps: attempt 0's delay must reproduce exactly,
	// and every call must be delayed but never past the configured max
	// (plus the simulation itself, which is microseconds here).
	var first [2]time.Duration
	for i := range first {
		eng2 := wrapCell(in)
		start := time.Now()
		if _, err := eng2(ks[0], cfgs[0]); err != nil {
			t.Fatal(err)
		}
		first[i] = time.Since(start)
	}
	if first[0] <= 0 || first[1] <= 0 {
		t.Fatalf("LatencyRate 1 added no delay: %v %v", first[0], first[1])
	}
	diff := first[0] - first[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > max/2 {
		t.Fatalf("same cell/attempt/seed delayed by %v then %v", first[0], first[1])
	}
	start := time.Now()
	if _, err := eng(ks[1], cfgs[1]); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > max+50*time.Millisecond {
		t.Fatalf("latency %v exceeded configured max %v", d, max)
	}
	for _, d := range decisions {
		if d.Kind != KindLatency {
			t.Fatalf("decision kind %v, want latency", d.Kind)
		}
	}
	if len(decisions) == 0 {
		t.Fatal("no latency decisions reported")
	}
	if KindLatency.String() != "latency" {
		t.Fatalf("kind name %q", KindLatency)
	}
	if !in.Active() {
		t.Fatal("latency-only injector reports inactive")
	}
	if err := (Injector{ErrorRate: 0.6, LatencyRate: 0.6}).Validate(); err == nil {
		t.Fatal("latency rate not counted against the engine budget")
	}
}

func TestInjectorZeroValueIsPassthrough(t *testing.T) {
	ks, cfgs := testCells(t)
	eng := wrapCell(Injector{})
	for _, k := range ks {
		for _, cfg := range cfgs {
			got, err := eng(k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := gcn.Simulate(k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("zero injector altered a result: %+v vs %+v", got, want)
			}
		}
	}
}

func TestInjectorValidate(t *testing.T) {
	cases := []Injector{
		{ErrorRate: -0.1},
		{CorruptRate: 1.5},
		{StallRate: math.NaN()},
		{ErrorRate: 0.6, CorruptRate: 0.6},
		{PanicRate: 1.5},
		{TornWriteRate: -0.2},
		{ErrorRate: 0.5, PanicRate: 0.6},
	}
	for i, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: invalid injector %+v accepted", i, in)
		}
	}
	if err := (Injector{ErrorRate: 0.05, CorruptRate: 0.05, StallRate: 0.05, PanicRate: 0.05}).Validate(); err != nil {
		t.Errorf("valid injector rejected: %v", err)
	}
	// The torn-write stream is independent of the engine roll: a full
	// engine budget plus TornWriteRate 1 is still valid.
	if err := (Injector{ErrorRate: 1, TornWriteRate: 1}).Validate(); err != nil {
		t.Errorf("torn-write rate counted against the engine budget: %v", err)
	}
}

func TestInjectorPanics(t *testing.T) {
	ks, cfgs := testCells(t)
	var decisions []Kind
	in := Injector{PanicRate: 1, Seed: 6, OnDecision: func(d Decision) { decisions = append(decisions, d.Kind) }}
	_, err := wrapCell(in)(ks[0], cfgs[0])
	if !errors.Is(err, gcn.ErrBatchPanic) {
		t.Fatalf("PanicRate 1: err = %v, want gcn.ErrBatchPanic", err)
	}
	if !strings.Contains(err.Error(), "injected engine panic") {
		t.Fatalf("panic error %v does not identify the injector", err)
	}
	if len(decisions) != 1 || decisions[0] != KindPanic {
		t.Fatalf("decisions %v, want [panic]", decisions)
	}
	if KindPanic.String() != "panic" || KindTornWrite.String() != "torn-write" {
		t.Fatalf("kind names %q/%q", KindPanic, KindTornWrite)
	}
	if !in.Active() {
		t.Fatal("panic-only injector reports inactive")
	}
	if (Injector{TornWriteRate: 1}).Active() {
		t.Fatal("torn-write-only injector must not activate the engine path")
	}
}

// tornPattern drives n writes of b through a fresh wrapped writer and
// records, per write, how many bytes landed (-1 for an intact write).
func tornPattern(t *testing.T, in Injector, n int, b []byte) []int {
	t.Helper()
	var sink bytes.Buffer
	w := in.WrapWriter(&sink)
	out := make([]int, n)
	for i := range out {
		before := sink.Len()
		wn, err := w.Write(b)
		switch {
		case err == nil:
			if wn != len(b) {
				t.Fatalf("write %d: intact write landed %d of %d bytes", i, wn, len(b))
			}
			out[i] = -1
		case errors.Is(err, ErrTornWrite):
			if wn != sink.Len()-before || wn >= len(b) {
				t.Fatalf("write %d: torn write reported %d bytes, landed %d", i, wn, sink.Len()-before)
			}
			out[i] = wn
		default:
			t.Fatalf("write %d: unexpected error %v", i, err)
		}
	}
	return out
}

func TestWrapWriterTearsDeterministically(t *testing.T) {
	in := Injector{TornWriteRate: 0.5, Seed: 11}
	b := []byte("0123456789abcdef")
	a := tornPattern(t, in, 64, b)
	if reflect.DeepEqual(a, tornPattern(t, Injector{TornWriteRate: 0.5, Seed: 12}, 64, b)) {
		t.Fatal("different seeds tore identically")
	}
	if !reflect.DeepEqual(a, tornPattern(t, in, 64, b)) {
		t.Fatal("same seed tore differently across fresh writers")
	}
	torn := 0
	for _, v := range a {
		if v >= 0 {
			torn++
		}
	}
	if torn == 0 || torn == len(a) {
		t.Fatalf("rate 0.5 tore %d of %d writes", torn, len(a))
	}
}

// TestWrapWriterTearsEachFileAtItsOwnWrites: a writer that names a
// file rolls its tears on that file's base name, so two files wrapped
// by one injector tear at different write indices, and a file reopened
// under the same name replays its tears exactly.
func TestWrapWriterTearsEachFileAtItsOwnWrites(t *testing.T) {
	in := Injector{TornWriteRate: 0.3, Seed: 1}
	dir := t.TempDir()
	torn := func(name string) []int {
		t.Helper()
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w := in.WrapWriter(f)
		var at []int
		for i := range 64 {
			if _, err := w.Write([]byte("0123456789abcdef")); errors.Is(err, ErrTornWrite) {
				at = append(at, i)
			} else if err != nil {
				t.Fatal(err)
			}
		}
		return at
	}
	a, b := torn("a.journal"), torn("b.journal")
	if len(a) == 0 || len(b) == 0 || reflect.DeepEqual(a, b) {
		t.Fatalf("two files tore at writes %v and %v, want different, non-empty sets", a, b)
	}
	if again := torn("a.journal"); !reflect.DeepEqual(again, a) {
		t.Fatalf("a.journal reopened tore at writes %v, want %v as before", again, a)
	}
}

func TestWrapWriterZeroRateIsIdentity(t *testing.T) {
	var sink bytes.Buffer
	if w := (Injector{}).WrapWriter(&sink); w != io.Writer(&sink) {
		t.Fatal("zero TornWriteRate wrapped the writer")
	}
}

// TestRowTamperDeterministicPerKey: the byzantine row-corruption
// decision is a pure function of (key, seq, seed) — a lying worker
// lies about the same rows on every replay — honours its rate, and
// reports itself through OnDecision as a corrupt-row kind.
func TestRowTamperDeterministicPerKey(t *testing.T) {
	if fire, _ := (Injector{}).RowTamper("j/k", 0); fire {
		t.Fatal("zero-value injector tampered a row")
	}
	var seen []Decision
	in := Injector{CorruptRowRate: 1, Seed: 11,
		OnDecision: func(d Decision) { seen = append(seen, d) }}
	fire1, sub1 := in.RowTamper("j/k", 0)
	if !fire1 {
		t.Fatal("rate 1 did not fire")
	}
	if len(seen) != 1 || seen[0].Kind != KindCorruptRow || seen[0].Kernel != "j/k" {
		t.Fatalf("decision not reported as corrupt-row for the key: %+v", seen)
	}
	// Same (key, seq, seed) in a fresh injector: identical decision,
	// identical corruption-shape sub-roll.
	fire2, sub2 := Injector{CorruptRowRate: 1, Seed: 11}.RowTamper("j/k", 0)
	if !fire2 || sub2 != sub1 {
		t.Fatalf("replay diverged: (%v,%d) vs (%v,%d)", fire1, sub1, fire2, sub2)
	}
	// Distinct keys draw from distinct streams.
	if _, other := in.RowTamper("j/other", 0); other == sub1 {
		if _, third := in.RowTamper("j/third", 0); third == sub1 {
			t.Fatal("sub-rolls identical across keys: streams not keyed")
		}
	}
	// A fractional rate is roughly honoured across many keys.
	frac := Injector{CorruptRowRate: 0.3, Seed: 11}
	fired := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if ok, _ := frac.RowTamper(fmt.Sprintf("j/k%d", i), 0); ok {
			fired++
		}
	}
	if rate := float64(fired) / n; rate < 0.25 || rate > 0.35 {
		t.Fatalf("corrupt-row rate %.3f far from requested 0.3", rate)
	}
}
