package gpuscale

// The benchmark harness: one testing.B per table and figure of the
// reproduction (see DESIGN.md's per-experiment index), plus ablation
// and micro benchmarks for the substrates. Each artifact benchmark
// regenerates its table/figure from the shared study; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured discussion of every
// artifact.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"

	"gpuscale/internal/experiments"
	"gpuscale/internal/gcn"
	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/memory"
	"gpuscale/internal/stats"
	"gpuscale/internal/suites"
	"gpuscale/internal/sweep"
	"gpuscale/internal/trace"
)

var benchStudy = sync.OnceValues(experiments.New)

func study(b *testing.B) *experiments.Study {
	b.Helper()
	s, err := benchStudy()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// sink prevents dead-code elimination of benchmark results.
var sink any

// --- End-to-end: the full data-collection pass of the paper. ---

// BenchmarkFullStudy measures the complete pipeline: corpus
// construction, the 267x891 sweep, and rule-based classification.
func BenchmarkFullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.New()
		if err != nil {
			b.Fatal(err)
		}
		sink = s
	}
}

// --- Tables. ---

func BenchmarkTableR1(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.TableR1().String()
	}
}

func BenchmarkTableR2(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.TableR2().String()
	}
}

func BenchmarkTableR3(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.TableR3().String()
	}
}

func BenchmarkTableR4(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.TableR4().String()
	}
}

func BenchmarkTableR5(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableR5()
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkTableR6(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableR6(8)
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

// --- Figures. ---

func BenchmarkFigR1(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.FigR1()
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}

func BenchmarkFigR2(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.FigR2()
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}

func BenchmarkFigR3(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.FigR3()
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}

func BenchmarkFigR4(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.FigR4(8)
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}

func BenchmarkFigR5(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.FigR5(10)
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}

func BenchmarkFigR6(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.FigR6()
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}

func BenchmarkFigR7(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.FigR7()
	}
}

func BenchmarkFigR8(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.FigR8()
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}

func BenchmarkTableP1(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableP1()
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

// --- Extension tables (power, prediction, governor). ---

func BenchmarkTableE1(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableE1()
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkTableE2(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableE2([]int{4, 12})
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkTableE3(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableE3([]float64{150, 275})
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

// --- Ablations (DESIGN.md's called-out design choices). ---

func BenchmarkAblationFidelity(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.AblationFidelity(40)
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkAblationThresholds(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.AblationThresholds(0.1)
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkAblationCacheModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationCacheModel(7)
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkAblationNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationNoise([]float64{0.05}, 5)
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

// --- Substrate micro-benchmarks. ---

func benchKernel() *kernel.Kernel {
	return kernel.New("bench", "bench", "k").Geometry(4096, 256).MustBuild()
}

func BenchmarkSimulateRound(b *testing.B) {
	k := benchKernel()
	cfg := hw.Reference()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := gcn.Simulate(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sink = r
	}
}

func BenchmarkSimulateDetailed(b *testing.B) {
	k := kernel.New("bench", "bench", "k").Geometry(256, 256).MustBuild()
	cfg := hw.Reference()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := gcn.SimulateDetailed(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sink = r
	}
}

func BenchmarkSweepSingleKernelFullGrid(b *testing.B) {
	ks := []*kernel.Kernel{benchKernel()}
	space := hw.StudySpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sweep.Run(ks, space, sweep.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sink = m
	}
}

// BenchmarkSweepNopObserver is BenchmarkSweepSingleKernelFullGrid with
// a no-op Observer attached — compare the two to price the observer
// dispatch overhead (make bench-obs asserts it stays under 5%).
func BenchmarkSweepNopObserver(b *testing.B) {
	ks := []*kernel.Kernel{benchKernel()}
	space := hw.StudySpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := sweep.RunContext(context.Background(), ks, space, sweep.Options{Observer: sweep.NopObserver{}})
		if err != nil {
			b.Fatal(err)
		}
		sink = m
	}
}

// BenchmarkSweepPath prices the sweep's row path — one Prepare and one
// whole-axis EvalBatch per row — for every engine. Round runs the full
// 891-config study grid on the 4096-workgroup bench kernel; the
// event-driven engines run a 256-workgroup kernel on a 27-config grid
// so a single iteration stays in benchmark territory (cmd/benchsweep
// measures the full grid and archives the numbers in
// BENCH_sweep.json).
func BenchmarkSweepPath(b *testing.B) {
	small, err := hw.NewSpace([]int{8, 24, 44}, []float64{300, 600, 1000}, []float64{300, 700, 1250})
	if err != nil {
		b.Fatal(err)
	}
	smallK := kernel.New("bench", "bench", "k").Geometry(256, 256).MustBuild()
	cases := []struct {
		engine sweep.Engine
		ks     []*kernel.Kernel
		space  hw.Space
	}{
		{sweep.Round, []*kernel.Kernel{benchKernel()}, hw.StudySpace()},
		{sweep.Detailed, []*kernel.Kernel{smallK}, small},
		{sweep.Wave, []*kernel.Kernel{smallK}, small},
		{sweep.Pipeline, []*kernel.Kernel{smallK}, small},
	}
	for _, c := range cases {
		b.Run(c.engine.String()+"/batch", func(b *testing.B) {
			opts := sweep.Options{Engine: c.engine, Workers: 1}
			cells := int64(len(c.ks) * c.space.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, _, err := sweep.RunContext(context.Background(), c.ks, c.space, opts)
				if err != nil {
					b.Fatal(err)
				}
				sink = m
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*cells), "ns/cell")
		})
	}
}

// benchStudyMatrix is the seed-1 study matrix: the whole corpus in
// seed-1 order on the study grid, round engine, 2% noise under seed 1
// — what one gpuscaled job of the end-to-end benchmark archives.
var benchStudyMatrix = sync.OnceValues(func() (*sweep.Matrix, error) {
	entries := suites.AllEntries(suites.Corpus())
	ks := make([]*kernel.Kernel, len(entries))
	for i, j := range rand.New(rand.NewSource(1)).Perm(len(entries)) {
		ks[i] = entries[j].Kernel
	}
	return sweep.Run(ks, hw.StudySpace(), sweep.Options{Engine: sweep.Round, NoiseStdDev: 0.02, Seed: 1})
})

// BenchmarkMatrixCSV prices the matrix CSV codec on the seed-1 study
// matrix (267×891 cells, about 20 MB): write is the export a finished
// job archives, read is the parse a client runs on the fetched body.
func BenchmarkMatrixCSV(b *testing.B) {
	m, err := benchStudyMatrix()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.WriteCSV(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := sweep.ReadCSV(bytes.NewReader(data), m.Space)
			if err != nil {
				b.Fatal(err)
			}
			sink = got
		}
	})
}

func BenchmarkCorpusConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = suites.Corpus()
	}
}

func BenchmarkCacheSimAccess(b *testing.B) {
	c, err := memory.NewCache(hw.L2Bytes, hw.L2LineBytes, hw.L2Ways)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64) % (4 << 20))
	}
}

func BenchmarkTraceReplay(b *testing.B) {
	k := kernel.New("bench", "bench", "k").
		Access(kernel.Gather, 128, 32, 4).
		Locality(256*1024, 0.2, 2).
		MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := trace.Replay(k, 2, 8, 7)
		if err != nil {
			b.Fatal(err)
		}
		sink = r
	}
}

func BenchmarkKMeansCorpusVectors(b *testing.B) {
	s := study(b)
	vecs := make([][]float64, len(s.Surfaces))
	for i, sf := range s.Surfaces {
		vecs[i] = sf.ResponseVector()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := stats.KMeans(vecs, 8, 17, 4)
		if err != nil {
			b.Fatal(err)
		}
		sink = c
	}
}

func BenchmarkClassifyCorpus(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Classify(s.Matrix)
	}
}

func BenchmarkAblationDRAMEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationDRAMEfficiency(50000, 7)
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkSimulateWave(b *testing.B) {
	k := kernel.New("bench", "bench", "k").Geometry(256, 256).MustBuild()
	cfg := hw.Reference()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := gcn.SimulateWave(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sink = r
	}
}

func BenchmarkDRAMSimServiceLine(b *testing.B) {
	d, err := memory.NewDRAMSim(hw.Reference())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ServiceLine(uint64(i)*64, 0)
	}
}

func BenchmarkTableC1(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.TableC1().String()
	}
}

func BenchmarkTableI1(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableI1()
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkTableE4(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableE4()
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkSimulatePipeline(b *testing.B) {
	k := kernel.New("bench", "bench", "k").Geometry(256, 256).MustBuild()
	cfg := hw.Reference()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := gcn.SimulatePipeline(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sink = r
	}
}

func BenchmarkFigC2(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.FigC2()
		if err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}

func BenchmarkWhatIfScaledL2(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.WhatIfScaledL2()
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkTableO1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.TableO1()
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationScheduler()
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkAblationTaxonomyFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationTaxonomyFidelity(12)
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkTableE5(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableE5([]float64{0, 50_000, 5_000_000})
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}

func BenchmarkTableM1(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.TableM1(8)
		if err != nil {
			b.Fatal(err)
		}
		sink = t.String()
	}
}
