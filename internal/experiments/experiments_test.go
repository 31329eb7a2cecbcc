package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// sharedStudy runs the full study once per test binary.
var sharedStudy = sync.OnceValues(New)

func study(t *testing.T) *Study {
	t.Helper()
	s, err := sharedStudy()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTableR1ContainsPaperNumbers(t *testing.T) {
	out := study(t).TableR1().String()
	for _, want := range []string{"891", "237897", "11.0x", "5.0x", "8.3x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table R-1 missing %q:\n%s", want, out)
		}
	}
}

func TestTableR2Totals(t *testing.T) {
	out := study(t).TableR2().String()
	if !strings.Contains(out, "97") || !strings.Contains(out, "267") {
		t.Errorf("Table R-2 missing corpus totals:\n%s", out)
	}
	if !strings.Contains(out, "proxyapps") {
		t.Errorf("Table R-2 missing suites:\n%s", out)
	}
}

func TestTableR3AllCategories(t *testing.T) {
	out := study(t).TableR3().String()
	for _, want := range []string{"comp-coupled", "bw-coupled", "cu-intolerant",
		"latency-bound", "parallelism-limited", "launch-bound", "non-obvious"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table R-3 missing %q:\n%s", want, out)
		}
	}
}

func TestTableR4HasAllSuites(t *testing.T) {
	s := study(t)
	out := s.TableR4().String()
	for _, suite := range s.Corpus {
		if !strings.Contains(out, suite.Name) {
			t.Errorf("Table R-4 missing suite %q", suite.Name)
		}
	}
}

func TestTableR5Verdicts(t *testing.T) {
	tbl, err := study(t).TableR5()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "NO") {
		t.Errorf("Table R-5 reports no failing suites:\n%s", out)
	}
	if !strings.Contains(out, "yes") {
		t.Errorf("Table R-5 reports no passing suites:\n%s", out)
	}
}

func TestTableR6RendersAgreement(t *testing.T) {
	tbl, err := study(t).TableR6(8)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "purity") || !strings.Contains(out, "silhouette") {
		t.Errorf("Table R-6 missing scores:\n%s", out)
	}
}

func TestFiguresRender(t *testing.T) {
	s := study(t)
	f1, err := s.FigR1()
	if err != nil || !strings.Contains(f1, "Fig R-1a") {
		t.Errorf("FigR1: %v\n%s", err, f1)
	}
	f2, err := s.FigR2()
	if err != nil || !strings.Contains(f2, "peak at") {
		t.Errorf("FigR2: %v\n%s", err, f2)
	}
	f3, err := s.FigR3()
	if err != nil || !strings.Contains(f3, "plateaus") {
		t.Errorf("FigR3: %v\n%s", err, f3)
	}
	f4, err := s.FigR4(8)
	if err != nil || !strings.Contains(f4, "c0") {
		t.Errorf("FigR4: %v\n%s", err, f4)
	}
	f5, err := s.FigR5(10)
	if err != nil || !strings.Contains(f5, "silhouette") {
		t.Errorf("FigR5: %v\n%s", err, f5)
	}
	f6, err := s.FigR6()
	if err != nil || !strings.Contains(f6, "scale:") {
		t.Errorf("FigR6: %v\n%s", err, f6)
	}
	f7 := s.FigR7()
	if !strings.Contains(f7, "CDF") {
		t.Errorf("FigR7:\n%s", f7)
	}
	f8, err := s.FigR8()
	if err != nil || !strings.Contains(f8, "median") {
		t.Errorf("FigR8: %v\n%s", err, f8)
	}
}

func TestBaselineAndRecoveryTables(t *testing.T) {
	s := study(t)
	base := s.TableBaseline().String()
	if !strings.Contains(base, "roofline=compute") {
		t.Errorf("baseline table malformed:\n%s", base)
	}
	rec := s.TableArchetypeRecovery().String()
	if !strings.Contains(rec, "pointer-chase") {
		t.Errorf("recovery table malformed:\n%s", rec)
	}
}

func TestAblationFidelity(t *testing.T) {
	tbl, err := study(t).AblationFidelity(25)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "mean") || !strings.Contains(out, "worst") {
		t.Errorf("fidelity ablation missing summary:\n%s", out)
	}
}

func TestAblationThresholds(t *testing.T) {
	tbl, err := study(t).AblationThresholds(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "stability") {
		t.Errorf("threshold ablation malformed:\n%s", tbl.String())
	}
}

// TestAblationNoise pins the figure EXPERIMENTS.md quotes: at seed 5,
// 2% lognormal noise keeps 222 of the 267 kernels in their noise-free
// category.
func TestAblationNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("noise ablation reruns the sweep")
	}
	tbl, err := AblationNoise([]float64{0.02}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 || len(tbl.Rows[0]) < 2 || tbl.Rows[0][1] != "222/267" {
		t.Errorf("noise ablation at sigma 0.02, seed 5, want 222/267 stable kernels:\n%s", tbl.String())
	}
}

func TestAblationCacheModel(t *testing.T) {
	tbl, err := AblationCacheModel(7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "trace L2") {
		t.Errorf("cache ablation malformed:\n%s", tbl.String())
	}
}

func TestStudyAccessors(t *testing.T) {
	s := study(t)
	name := s.Matrix.Kernels[0]
	if s.Kernel(name) == nil {
		t.Errorf("Kernel(%q) = nil", name)
	}
	if s.SuiteOf(name) == "" {
		t.Errorf("SuiteOf(%q) empty", name)
	}
	if s.Kernel("nope") != nil || s.SuiteOf("nope") != "" {
		t.Error("unknown kernel resolved")
	}
}

func TestTableP1(t *testing.T) {
	tbl, err := study(t).TableP1()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "97 programs") {
		t.Errorf("Table P-1 missing program count:\n%s", out)
	}
	if !strings.Contains(out, "mixing kernel categories") {
		t.Errorf("Table P-1 missing disagreement rows:\n%s", out)
	}
}

func TestAblationDRAMEfficiency(t *testing.T) {
	tbl, err := AblationDRAMEfficiency(20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "sequential") || !strings.Contains(out, "row-hit rate") {
		t.Errorf("DRAM ablation malformed:\n%s", out)
	}
}

func TestTableC1(t *testing.T) {
	out := study(t).TableC1().String()
	if !strings.Contains(out, "arith intensity") || !strings.Contains(out, "proxyapps") {
		t.Errorf("Table C-1 malformed:\n%s", out)
	}
}

func TestTableI1(t *testing.T) {
	tbl, err := study(t).TableI1()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"cu x coreclk", "cu x memclk", "super-multiplicative"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I-1 missing %q:\n%s", want, out)
		}
	}
}

func TestFigC2(t *testing.T) {
	out, err := study(t).FigC2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "roofline") || !strings.Contains(out, "roof") {
		t.Errorf("Fig C-2 malformed:\n%s", out)
	}
}

func TestWhatIfScaledL2CuresIntolerance(t *testing.T) {
	tbl, err := study(t).WhatIfScaledL2()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "cured") {
		t.Fatalf("what-if table malformed:\n%s", out)
	}
	// The causal claim: scaling the L2 with CUs must cure the decline
	// for the large majority of CU-intolerant kernels.
	lines := strings.Split(out, "\n")
	var curedLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "cured") {
			curedLine = l
		}
	}
	var cured, total int
	if _, err := fmt.Sscanf(strings.Fields(curedLine)[1], "%d/%d", &cured, &total); err != nil {
		t.Fatalf("cannot parse cured line %q: %v", curedLine, err)
	}
	if total == 0 {
		t.Fatal("no CU-intolerant kernels in study")
	}
	if cured*4 < total*3 {
		t.Errorf("scaled L2 cured only %d/%d kernels, want >= 75%%", cured, total)
	}
}

func TestTableO1(t *testing.T) {
	tbl, err := TableO1()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "waves/CU") {
		t.Fatalf("Table O-1 malformed:\n%s", out)
	}
	// Occupancy must be monotone non-increasing with register
	// pressure, and the lowest-occupancy row must be slowest.
	var rows [][]string
	for _, l := range strings.Split(out, "\n")[3:] {
		f := strings.Fields(l)
		if len(f) >= 4 {
			rows = append(rows, f)
		}
	}
	if len(rows) < 5 {
		t.Fatalf("too few rows:\n%s", out)
	}
	first, last := rows[0], rows[len(rows)-1]
	var tputHigh, tputLow float64
	fmt.Sscanf(first[2], "%f", &tputHigh)
	fmt.Sscanf(last[2], "%f", &tputLow)
	if tputLow >= tputHigh {
		t.Errorf("occupancy collapse did not cost performance: %g -> %g", tputHigh, tputLow)
	}
}

func TestStudyDeterministicAcrossConstructions(t *testing.T) {
	// Two independently built studies must render byte-identical
	// artifacts (catches map-iteration nondeterminism in any table).
	a, err := New()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if a.TableR3().String() != b.TableR3().String() {
		t.Error("Table R-3 nondeterministic")
	}
	if a.TableR4().String() != b.TableR4().String() {
		t.Error("Table R-4 nondeterministic")
	}
	ta, err := a.TableR6(8)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.TableR6(8)
	if err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Error("Table R-6 nondeterministic")
	}
	f7a, f7b := a.FigR7(), b.FigR7()
	if f7a != f7b {
		t.Error("Fig R-7 nondeterministic")
	}
}

func TestAblationTaxonomyFidelity(t *testing.T) {
	tbl, err := AblationTaxonomyFidelity(12)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "agreement") {
		t.Fatalf("taxonomy fidelity ablation malformed:\n%s", out)
	}
	var line string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "agreement") {
			line = l
		}
	}
	var agree, total int
	if _, err := fmt.Sscanf(strings.Fields(line)[1], "%d/%d", &agree, &total); err != nil {
		t.Fatalf("cannot parse %q: %v", line, err)
	}
	if agree*4 < total*3 {
		t.Errorf("engines agree on only %d/%d verdicts, want >= 75%%", agree, total)
	}
}

func TestAblationScheduler(t *testing.T) {
	tbl, err := AblationScheduler()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "round-robin") || !strings.Contains(out, "latency-mix") {
		t.Fatalf("scheduler ablation malformed:\n%s", out)
	}
}

func TestWriteClassificationsCSVDirect(t *testing.T) {
	var buf bytes.Buffer
	if err := study(t).WriteClassificationsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "kernel,suite,archetype,category") {
		t.Fatalf("header missing: %.80s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 268 {
		t.Fatalf("lines = %d, want 268", lines)
	}
}

func TestWriteMarkdownReportDirect(t *testing.T) {
	var buf bytes.Buffer
	if err := study(t).WriteMarkdownReport(&buf, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table R-5", "Table E-5", "## Figure R-7", "|---|"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown report missing %q", want)
		}
	}
}

func TestTableM1MethodRobustness(t *testing.T) {
	tbl, err := study(t).TableM1(8)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "Rand index") {
		t.Fatalf("Table M-1 malformed:\n%s", out)
	}
	// Both methods must group the corpus consistently.
	var rows []float64
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) < 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(f[len(f)-1], "%f", &v); err == nil && v > 0 && v <= 1 {
			rows = append(rows, v)
		}
	}
	if len(rows) < 3 {
		t.Fatalf("could not parse scores:\n%s", out)
	}
	if rows[0] < 0.7 {
		t.Errorf("k-means/hierarchical Rand index = %.3f, want >= 0.7", rows[0])
	}
	if rows[2] < 0.5 {
		t.Errorf("hierarchical purity = %.3f, want >= 0.5", rows[2])
	}
}
