package stats

import (
	"fmt"
	"math"
)

// LinearFit is the result of an ordinary least-squares line fit.
type LinearFit struct {
	// Slope and Intercept define the fitted line y = Slope*x + Intercept.
	Slope, Intercept float64
	// R2 is the coefficient of determination (1 = perfect fit). For a
	// constant y it is defined as 1 if the fit is exact, else 0. A y
	// whose spread about its mean is within rounding of zero, relative
	// to its own scale, is constant: that spread is float residue (a
	// point an ulp or two off), not variation a line could explain.
	R2 float64
}

// residueULPs bounds, in ulps of each point, the deviations Linear
// reads as rounding residue rather than spread.
const residueULPs = 16

// Linear fits y = a*x + b by least squares. It needs at least two
// points with distinct x values.
func Linear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: need >= 2 points, have %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: degenerate fit, all x equal")
	}
	slope := sxy / sxx
	intercept := my - slope*mx

	var ssRes, ssTot, syy float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
		syy += ys[i] * ys[i]
	}
	// Rounding leaves each deviation a few ulps of its point at most;
	// residue is what falls under residueULPs of them, squared and
	// summed.
	residue := syy * (residueULPs * 0x1p-52) * (residueULPs * 0x1p-52)
	r2 := 0.0
	switch {
	case ssTot > residue:
		r2 = 1 - ssRes/ssTot
	case ssRes <= residue:
		r2 = 1
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// Pearson returns the Pearson correlation coefficient, or NaN when
// either sample is constant or the lengths mismatch.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
