package stats

import (
	"math"
	"testing"
)

func TestLinearPerfectFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	fit, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %g, want 1", fit.R2)
	}
}

func TestLinearNoisyFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1}
	fit, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < 1.8 || fit.Slope > 2.2 {
		t.Errorf("slope = %g, want ~2", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %g, want > 0.99", fit.R2)
	}
}

func TestLinearConstantY(t *testing.T) {
	fit, err := Linear([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.R2 != 1 {
		t.Errorf("constant fit = %+v, want slope 0 R2 1", fit)
	}
}

// TestLinearRoundingResidueIsConstant: a constant curve reads R2 = 1,
// and so does the same curve with one point an ulp off, whose spread
// is rounding residue; a curve with a real 1% spread reads the R2 of
// its fit, the squared correlation.
func TestLinearRoundingResidueIsConstant(t *testing.T) {
	xs := []float64{4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44}
	flat := make([]float64, len(xs))
	for i := range flat {
		flat[i] = 1
	}
	if fit, err := Linear(xs, flat); err != nil || fit.R2 != 1 {
		t.Fatalf("constant curve: R2 %g (%v), want 1", fit.R2, err)
	}
	for i := range flat {
		off := append([]float64(nil), flat...)
		off[i] = math.Nextafter(1, 2)
		if fit, err := Linear(xs, off); err != nil || fit.R2 != 1 {
			t.Fatalf("constant curve with point %d an ulp off: R2 %g (%v), want 1", i, fit.R2, err)
		}
		off[i] = math.Nextafter(1, 0)
		if fit, err := Linear(xs, off); err != nil || fit.R2 != 1 {
			t.Fatalf("constant curve with point %d an ulp under: R2 %g (%v), want 1", i, fit.R2, err)
		}
	}
	spread := []float64{1, 1.01, 0.99, 1.005, 1, 0.995, 1.01, 0.99, 1, 1.005, 0.995}
	fit, err := Linear(xs, spread)
	if err != nil {
		t.Fatal(err)
	}
	r := Pearson(xs, spread)
	if math.Abs(fit.R2-r*r) > 1e-9 || fit.R2 == 1 {
		t.Fatalf("1%% spread: R2 %g, want its squared correlation %g", fit.R2, r*r)
	}
}

func TestLinearErrors(t *testing.T) {
	if _, err := Linear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Linear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Linear([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestPearson(t *testing.T) {
	if got := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %g, want 1", got)
	}
	if got := Pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %g, want -1", got)
	}
	if got := Pearson([]float64{1, 1}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("constant-x correlation = %g, want NaN", got)
	}
	if got := Pearson([]float64{1}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("mismatched correlation = %g, want NaN", got)
	}
}
