package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   int
		wantOK bool
	}{
		{1000, 90, true}, // capped at p90
		{100, 90, true},  // p90 is rank 90, with 10 samples beyond it
		{99, 89, true},   // so below 100 samples p90 is left out
		{40, 75, true},
		{20, 50, true},
		{19, 0, false}, // not even the median has 10 beyond it
	} {
		q, ok := tailPercentile(tc.n, 90)
		if q != tc.want || ok != tc.wantOK {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, q, ok, tc.want, tc.wantOK)
		}
		if ok && tc.n-rank(q, tc.n) < tailBeyond {
			t.Errorf("n=%d: p%d has only %d samples beyond it", tc.n, q, tc.n-rank(q, tc.n))
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("percentile(50) = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("percentile(90) = %v, want 5", got)
	}
}

func TestHistQuantile(t *testing.T) {
	bs := []bucket{{0.01, 2}, {0.1, 6}, {1, 10}, {math.Inf(1), 10}}
	if got := histQuantile(bs, 0.5); math.Abs(got-0.0775) > 1e-9 {
		t.Errorf("p50 = %v, want 0.0775 (3/4 of the way through the 0.01-0.1 bucket)", got)
	}
	if got := histQuantile([]bucket{{1, 0}}, 0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
}

// TestVerifyRejectsAlteredOutput is the oracle's negative test: one
// altered cell and one altered category each fail a study.
func TestVerifyRejectsAlteredOutput(t *testing.T) {
	w, _ := findWorkload("round-library")
	s, err := buildStudy(w, 7, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(context.Background(), w, 7, s)
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(w, 7, 16, nil, "")
	_, m, cls, err := cl.study(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.verify(m, cls); err != nil {
		t.Fatalf("an unaltered study fails verification: %v", err)
	}

	m.Throughput[3][100] *= 1 + 1e-12
	if err := ref.verify(m, cls); err == nil {
		t.Error("a matrix with one altered cell passed verification")
	}
	m.Throughput[3][100] = ref.matrix.Throughput[ref.matrix.Row(m.Kernels[3])][100]

	if err := ref.verify(m, cls); err != nil {
		t.Fatalf("restoring the cell did not restore the matrix: %v", err)
	}
	cls[5].Category++
	if err := ref.verify(m, cls); err == nil {
		t.Error("a taxonomy with one altered category passed verification")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smoke runs a workload untraced and traced on a 16-kernel corpus
// prefix and checks that every metric BENCHMARK.json names is emitted
// with its unit and that no study failed.
func smoke(t *testing.T, workload, gpuscaled string) {
	spec := loadSpec(t)
	w, err := findWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		c := config{w: w, seed: 3, window: 300 * time.Millisecond, minStudies: 4, prefix: 16,
			trace: traced, gpuscaled: gpuscaled, workDir: t.TempDir(), deadline: time.Now().Add(time.Minute)}
		res, err := run(context.Background(), c)
		if err != nil {
			t.Fatalf("%s (traced %v): %v", workload, traced, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted < 2 {
			t.Errorf("%s (traced %v): attempted %d, failed %d, correct %v", workload, traced, res.Attempted, res.Failed, res.Correct)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d", workload, traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s (traced %v): metric %s = %+v (present %v), want unit %s", workload, traced, m.Name, got, ok, m.Unit)
			}
		}
		if !traced && res.Metrics["study_s_p50"].Value <= 0 {
			t.Errorf("%s: study_s_p50 = %v", workload, res.Metrics["study_s_p50"].Value)
		}
	}
}

func TestSmokeLibrary(t *testing.T) {
	smoke(t, "round-library", "")
}

func TestSmokeNode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs gpuscaled")
	}
	bin := filepath.Join(t.TempDir(), "gpuscaled")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gpuscaled")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building gpuscaled: %v\n%s", err, out)
	}
	smoke(t, "round-node", bin)
}
