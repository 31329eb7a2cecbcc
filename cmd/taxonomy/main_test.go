package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleArtifacts(t *testing.T) {
	if err := run(3, 0, false, false, 8, "", "", ""); err != nil {
		t.Fatalf("-table 3: %v", err)
	}
	if err := run(0, 2, false, false, 8, "", "", ""); err != nil {
		t.Fatalf("-fig 2: %v", err)
	}
	if err := run(0, 0, false, true, 8, "", "", ""); err != nil {
		t.Fatalf("-baseline: %v", err)
	}
}

func TestRunRejectsUnknownArtifacts(t *testing.T) {
	if err := run(2, 0, false, false, 8, "", "", ""); err == nil {
		t.Error("-table 2 accepted (belongs to suitereport)")
	}
	if err := run(99, 0, false, false, 8, "", "", ""); err == nil {
		t.Error("-table 99 accepted")
	}
	if err := run(0, 99, false, false, 8, "", "", ""); err == nil {
		t.Error("-fig 99 accepted")
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every artifact")
	}
	if err := run(0, 0, true, false, 8, "", "", ""); err != nil {
		t.Fatalf("-all: %v", err)
	}
}

func TestRunCSVExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "classes.csv")
	if err := run(0, 0, false, false, 8, path, "", ""); err != nil {
		t.Fatalf("-csv: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "kernel,suite,archetype,category") {
		t.Fatalf("CSV header missing: %.80s", s)
	}
	if lines := strings.Count(s, "\n"); lines != 268 {
		t.Fatalf("CSV lines = %d, want 268 (header + 267 kernels)", lines)
	}
	if err := run(0, 0, false, false, 8, "/no/such/dir/x.csv", "", ""); err == nil {
		t.Error("unwritable CSV path accepted")
	}
}

// TestClassificationsCSVPinned regenerates docs/classifications.csv,
// the per-kernel dataset the repository publishes, through the -csv
// path and requires the committed file byte for byte: a change to any
// noise-free verdict, shape or fit statistic must regenerate it.
func TestClassificationsCSVPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "classifications.csv")
	if err := run(0, 0, false, false, 8, path, "", ""); err != nil {
		t.Fatalf("-csv: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "classifications.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("docs/classifications.csv is stale from line %d: -csv writes\n%s\nthe file has\n%s\n(regenerate it with go run ./cmd/taxonomy -csv docs/classifications.csv)",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("docs/classifications.csv is stale: -csv writes %d lines, the file has %d", len(gotLines), len(wantLines))
	}
}

func TestRunMarkdownReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	if err := run(0, 0, false, false, 8, "", path, ""); err != nil {
		t.Fatalf("-md: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"# gpuscale study report", "Table R-3", "Table E-4", "## Figure R-2", "## Figure C-2"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if err := run(0, 0, false, false, 8, "", "/no/such/dir/x.md", ""); err == nil {
		t.Error("unwritable markdown path accepted")
	}
}

func TestRunSVGFigures(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "figs")
	if err := run(0, 0, false, false, 8, "", "", dir); err != nil {
		t.Fatalf("-svgdir: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 7 {
		t.Fatalf("SVG figures = %d, want >= 7", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig-r2-cu-intolerance.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Fatal("not an SVG file")
	}
}
