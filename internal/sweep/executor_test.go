package sweep

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
)

// trippedObserver records BreakerTripped events for assertions.
type trippedObserver struct {
	NopObserver
	mu    sync.Mutex
	trips []string
}

func (o *trippedObserver) BreakerTripped(row int, kernel string, consecutive int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.trips = append(o.trips, kernel)
}

// TestPanicIsolation: an engine that panics must not crash the sweep;
// the panic is converted into a failed cell whose error wraps
// ErrEnginePanic and carries the captured stack.
func TestPanicIsolation(t *testing.T) {
	space := testSpace(t)
	opts := Options{
		Workers: 2,
		Row: cellFunc(func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
			if k.Name == "p.b" {
				panic("engine bug: nil dereference in " + k.Name)
			}
			return gcn.Simulate(k, cfg)
		}),
	}
	m, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Failed != space.Size() {
		t.Fatalf("failed = %d, want the whole panicking row (%d)", rep.Failed, space.Size())
	}
	if rep.OK != 2*space.Size() {
		t.Fatalf("ok = %d, want the two healthy rows intact", rep.OK)
	}
	for _, f := range rep.Failures {
		if f.Kernel != "p.b" {
			t.Fatalf("healthy kernel %s failed: %v", f.Kernel, f.Err)
		}
		if !errors.Is(f.Err, ErrEnginePanic) {
			t.Fatalf("failure error %v does not wrap ErrEnginePanic", f.Err)
		}
		if !strings.Contains(f.Err.Error(), "engine bug") {
			t.Fatalf("panic value lost: %v", f.Err)
		}
		if !strings.Contains(f.Err.Error(), "goroutine") {
			t.Fatalf("stack trace missing from panic failure: %.120s", f.Err.Error())
		}
	}
	b := m.Row("p.b")
	for c, s := range m.Status[b] {
		if s != StatusFailed {
			t.Fatalf("panicked cell %d has status %s", c, s)
		}
	}
}

// TestPanicIsNotRetried: a panic is a hard failure — unlike transient
// errors it consumes no retries, fails its cell immediately, and
// counts toward the breaker streak.
func TestPanicIsNotRetried(t *testing.T) {
	space := testSpace(t)
	var once sync.Once
	opts := Options{
		Retries: 2,
		Row: cellFunc(func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
			panicked := false
			once.Do(func() { panicked = true })
			if panicked {
				panic("one-shot")
			}
			return gcn.Simulate(k, cfg)
		}),
	}
	_, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Retries != 0 {
		t.Fatalf("one-shot panic should fail exactly one cell with no retries: %s", rep.Summary())
	}
	if !errors.Is(rep.Failures[0].Err, ErrEnginePanic) {
		t.Fatalf("failure %v does not wrap ErrEnginePanic", rep.Failures[0].Err)
	}
}

// TestCircuitBreakerQuarantinesRow: after Breaker consecutive hard
// failures the rest of the kernel's row is quarantined without
// touching the engine, and the trip is observable.
func TestCircuitBreakerQuarantinesRow(t *testing.T) {
	space := testSpace(t)
	obs := &trippedObserver{}
	calls := 0
	opts := Options{
		Breaker:  3,
		Observer: obs,
		Row: cellFunc(func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
			if k.Name == "p.b" {
				calls++
				return gcn.Result{}, errors.New("bad kernel")
			}
			return gcn.Simulate(k, cfg)
		}),
	}
	m, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.Failed != 3 {
		t.Fatalf("failed = %d, want exactly the breaker threshold", rep.Failed)
	}
	if rep.Quarantined != space.Size()-3 {
		t.Fatalf("quarantined = %d, want the rest of the row (%d)",
			rep.Quarantined, space.Size()-3)
	}
	if rep.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1", rep.BreakerTrips)
	}
	if calls != 3 {
		t.Fatalf("engine called %d times for the bad kernel after trip, want 3", calls)
	}
	if len(obs.trips) != 1 || obs.trips[0] != "p.b" {
		t.Fatalf("observer saw trips %v, want [p.b]", obs.trips)
	}
	b := m.Row("p.b")
	for c, s := range m.Status[b] {
		want := StatusQuarantined
		if c < 3 {
			want = StatusFailed
		}
		if s != want {
			t.Fatalf("cell %d has status %s, want %s", c, s, want)
		}
	}
	if !strings.Contains(rep.Summary(), "1 breaker trip") {
		t.Fatalf("summary omits the trip: %s", rep.Summary())
	}
}

// TestCircuitBreakerResetsOnSuccess: a streak interrupted by a success
// never trips the breaker.
func TestCircuitBreakerResetsOnSuccess(t *testing.T) {
	space := testSpace(t)
	n := 0
	opts := Options{
		Breaker: 3,
		Row: cellFunc(func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
			n++
			if n%3 == 0 { // every third call fails: streak never exceeds 1
				return gcn.Result{}, errors.New("flaky")
			}
			return gcn.Simulate(k, cfg)
		}),
		Workers: 1,
	}
	_, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BreakerTrips != 0 || rep.Quarantined != 0 {
		t.Fatalf("interleaved failures tripped the breaker: %s", rep.Summary())
	}
}

// TestBreakerDisabledByDefault: without Options.Breaker a row of pure
// failures still runs every cell.
func TestBreakerDisabledByDefault(t *testing.T) {
	space := testSpace(t)
	opts := Options{
		Row: cellFunc(func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
			if k.Name == "p.b" {
				return gcn.Result{}, errors.New("always down")
			}
			return gcn.Simulate(k, cfg)
		}),
	}
	_, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != space.Size() || rep.Quarantined != 0 || rep.BreakerTrips != 0 {
		t.Fatalf("breaker fired while disabled: %s", rep.Summary())
	}
}

// TestQuarantineAfterBrakesSweep: once QuarantineAfter breakers trip,
// rows not yet started are quarantined wholesale instead of running.
func TestQuarantineAfterBrakesSweep(t *testing.T) {
	space := testSpace(t)
	opts := Options{
		Workers:         1, // deterministic row order
		Breaker:         2,
		QuarantineAfter: 1,
		Row: cellFunc(func(k *kernel.Kernel, cfg hw.Config) (gcn.Result, error) {
			return gcn.Result{}, errors.New("fleet down")
		}),
	}
	m, rep, err := RunContext(context.Background(), testKernels(), space, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, rep)
	if rep.BreakerTrips == 0 {
		t.Fatalf("no breaker trip under total failure: %s", rep.Summary())
	}
	// First row: 2 failures then quarantined remainder. Later rows:
	// fully quarantined by the sweep-level brake.
	if rep.Failed != 2 {
		t.Fatalf("failed = %d, want only the first row's streak", rep.Failed)
	}
	if rep.Quarantined != rep.Cells-2 {
		t.Fatalf("quarantined = %d, want everything else (%d)", rep.Quarantined, rep.Cells-2)
	}
	for r := 1; r < len(m.Kernels); r++ {
		for c, s := range m.Status[r] {
			if s != StatusQuarantined {
				t.Fatalf("row %d cell %d has status %s after sweep brake", r, c, s)
			}
		}
	}
}
