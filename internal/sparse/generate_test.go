package sparse

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fifer/internal/sim"
)

// generateMap is the original Generate, which gathered each row's columns
// in a map and sorted them afterwards. It is kept as the oracle the
// sorted-slice generator must match bit for bit.
func generateMap(in Input, scale int, seed uint64) *CSR {
	s, ok := matSpecs[in]
	if !ok {
		panic(fmt.Sprintf("sparse: unknown input %q", in))
	}
	n := s.size[scale]
	r := sim.NewRand(seed ^ uint64(n) ^ uint64(len(in))*977)
	m := &CSR{Name: string(in), NumRows: n, NumCols: n, RowOffsets: make([]uint64, n+1)}
	band := n / 8
	if min := int(s.nnzRow*8) + 16; band < min {
		band = min
	}
	if band > n {
		band = n
	}
	cols := make(map[uint64]struct{}, int(s.nnzRow)+4)
	for row := 0; row < n; row++ {
		target := int(s.nnzRow)
		frac := s.nnzRow - float64(target)
		if r.Float64() < frac {
			target++
		}
		if r.Float64() < 0.05 {
			target *= 3
		}
		if target < 1 {
			target = 1
		}
		if target > band/2 {
			target = band / 2
		}
		if target > n {
			target = n
		}
		for k := range cols {
			delete(cols, k)
		}
		for len(cols) < target {
			var c int
			if s.banded {
				c = row - band/2 + r.Intn(band)
				if c < 0 || c >= n {
					c = r.Intn(n)
				}
			} else {
				c = r.Intn(n)
			}
			cols[uint64(c)] = struct{}{}
		}
		sorted := make([]uint64, 0, len(cols))
		for c := range cols {
			sorted = append(sorted, c)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, c := range sorted {
			m.ColIdx = append(m.ColIdx, c)
			m.Values = append(m.Values, 1+r.Float64())
		}
		m.RowOffsets[row+1] = uint64(len(m.ColIdx))
	}
	return m
}

// Every Table 4 matrix at scales 0-2 and seeds 1-3 equals the map oracle's.
func TestGenerateMatchesMapOracle(t *testing.T) {
	for _, in := range Inputs {
		for scale := 0; scale <= 2; scale++ {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/scale%d/seed%d", in, scale, seed), func(t *testing.T) {
					if got, want := Generate(in, scale, seed), generateMap(in, scale, seed); !reflect.DeepEqual(got, want) {
						t.Fatalf("Generate differs from the map oracle: %d/%d non-zeros", got.NNZ(), want.NNZ())
					}
				})
			}
		}
	}
}

// BenchmarkGenerate times each Table 4 generator at the scale the sweeps
// use by default (1).
func BenchmarkGenerate(b *testing.B) {
	for _, in := range Inputs {
		b.Run(string(in), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Generate(in, 1, 1)
			}
		})
	}
}
