package hw

import (
	"fmt"
	"slices"
)

// Space is a rectangular sweep grid over the three hardware knobs.
// The zero value is empty; use StudySpace for the paper's 891-point
// grid or NewSpace to build a custom one. Its JSON form is the one
// every wire and file uses: a journal's space record, the job API's
// space field, and the lease and replication messages. Decoding does
// not validate; pass the axes through NewSpace.
type Space struct {
	// CUCounts are the compute-unit settings, ascending.
	CUCounts []int `json:"cus"`
	// CoreClocksMHz are the core-clock settings, ascending.
	CoreClocksMHz []float64 `json:"core_mhz"`
	// MemClocksMHz are the memory-clock settings, ascending.
	MemClocksMHz []float64 `json:"mem_mhz"`
}

// StudySpace returns the reconstruction of the paper's configuration
// grid: 11 CU counts x 9 core clocks x 9 memory clocks = 891
// configurations, spanning an 11x CU range (4..44), a 5x core-clock
// range (200..1000 MHz) and an 8.33x memory-clock range (150..1250 MHz).
func StudySpace() Space {
	s := Space{
		CUCounts:      make([]int, 0, 11),
		CoreClocksMHz: make([]float64, 0, 9),
		MemClocksMHz:  make([]float64, 0, 9),
	}
	for cu := MinCUs; cu <= MaxCUs; cu += 4 {
		s.CUCounts = append(s.CUCounts, cu)
	}
	for f := 200.0; f <= 1000; f += 100 {
		s.CoreClocksMHz = append(s.CoreClocksMHz, f)
	}
	for i := 0; i < 9; i++ {
		s.MemClocksMHz = append(s.MemClocksMHz, 150+float64(i)*137.5)
	}
	return s
}

// NewSpace builds a custom sweep grid. It copies its arguments and
// returns an error if any axis is empty or any configuration in the
// grid fails validation.
func NewSpace(cus []int, coreMHz, memMHz []float64) (Space, error) {
	if len(cus) == 0 || len(coreMHz) == 0 || len(memMHz) == 0 {
		return Space{}, fmt.Errorf("hw: empty sweep axis (cus=%d core=%d mem=%d)",
			len(cus), len(coreMHz), len(memMHz))
	}
	s := Space{
		CUCounts:      append([]int(nil), cus...),
		CoreClocksMHz: append([]float64(nil), coreMHz...),
		MemClocksMHz:  append([]float64(nil), memMHz...),
	}
	for _, c := range s.Configs() {
		if err := c.Validate(); err != nil {
			return Space{}, err
		}
	}
	return s, nil
}

// Size returns the number of configurations in the grid.
func (s Space) Size() int {
	return len(s.CUCounts) * len(s.CoreClocksMHz) * len(s.MemClocksMHz)
}

// Configs enumerates every configuration in the grid in a fixed order:
// memory clock fastest, then core clock, then CU count.
func (s Space) Configs() []Config {
	out := make([]Config, 0, s.Size())
	for _, cu := range s.CUCounts {
		for _, fc := range s.CoreClocksMHz {
			for _, fm := range s.MemClocksMHz {
				out = append(out, Config{CUs: cu, CoreClockMHz: fc, MemClockMHz: fm})
			}
		}
	}
	return out
}

// Equal reports whether two grids have identical axes (element-wise;
// a NaN axis value never compares equal, as everywhere else).
func (s Space) Equal(t Space) bool {
	return slices.Equal(s.CUCounts, t.CUCounts) &&
		slices.Equal(s.CoreClocksMHz, t.CoreClocksMHz) &&
		slices.Equal(s.MemClocksMHz, t.MemClocksMHz)
}

// Clone returns a deep copy of the grid, sharing no axis storage with
// the receiver.
func (s Space) Clone() Space {
	return Space{
		CUCounts:      slices.Clone(s.CUCounts),
		CoreClocksMHz: slices.Clone(s.CoreClocksMHz),
		MemClocksMHz:  slices.Clone(s.MemClocksMHz),
	}
}

// AxesValid reports whether every configuration in the grid passes
// Config.Validate. Grid configs never set L2Override and Validate is a
// pure conjunction of per-axis range checks, so checking each axis
// value once decides the full cross product — the sweep's up-front
// validation uses this to avoid a per-config pass over the grid.
func (s Space) AxesValid() bool {
	for _, cu := range s.CUCounts {
		if !validCUs(cu) {
			return false
		}
	}
	for _, f := range s.CoreClocksMHz {
		if !validCoreMHz(f) {
			return false
		}
	}
	for _, f := range s.MemClocksMHz {
		if !validMemMHz(f) {
			return false
		}
	}
	return true
}

// Index returns the position of config c in the Configs ordering, or
// -1 if c is not a grid point.
func (s Space) Index(c Config) int {
	ci := indexInt(s.CUCounts, c.CUs)
	fi := indexFloat(s.CoreClocksMHz, c.CoreClockMHz)
	mi := indexFloat(s.MemClocksMHz, c.MemClockMHz)
	if ci < 0 || fi < 0 || mi < 0 {
		return -1
	}
	return (ci*len(s.CoreClocksMHz)+fi)*len(s.MemClocksMHz) + mi
}

// At returns the configuration with the given axis indices.
// It panics if an index is out of range, as slice indexing would.
func (s Space) At(cuIdx, coreIdx, memIdx int) Config {
	return Config{
		CUs:          s.CUCounts[cuIdx],
		CoreClockMHz: s.CoreClocksMHz[coreIdx],
		MemClockMHz:  s.MemClocksMHz[memIdx],
	}
}

// Max returns the strongest configuration of the grid (top of every
// axis).
func (s Space) Max() Config {
	return s.At(len(s.CUCounts)-1, len(s.CoreClocksMHz)-1, len(s.MemClocksMHz)-1)
}

// Min returns the weakest configuration of the grid.
func (s Space) Min() Config {
	return s.At(0, 0, 0)
}

// CURange returns the ratio between the largest and smallest CU counts.
func (s Space) CURange() float64 {
	return float64(s.CUCounts[len(s.CUCounts)-1]) / float64(s.CUCounts[0])
}

// CoreClockRange returns the ratio between the fastest and slowest core
// clocks.
func (s Space) CoreClockRange() float64 {
	return s.CoreClocksMHz[len(s.CoreClocksMHz)-1] / s.CoreClocksMHz[0]
}

// MemClockRange returns the ratio between the fastest and slowest
// memory clocks.
func (s Space) MemClockRange() float64 {
	return s.MemClocksMHz[len(s.MemClocksMHz)-1] / s.MemClocksMHz[0]
}

func indexInt(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func indexFloat(xs []float64, v float64) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
