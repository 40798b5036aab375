package graph

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fifer/internal/sim"
)

// fromEdgesMap is the original map-deduplicating FromEdges, kept as the
// oracle the sort-based construction must match bit for bit.
func fromEdgesMap(name string, n int, edges [][2]int, undirected bool) *Graph {
	type pair struct{ u, v int }
	seen := make(map[pair]struct{}, len(edges)*2)
	adj := make([][]uint64, n)
	add := func(u, v int) {
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			return
		}
		p := pair{u, v}
		if _, ok := seen[p]; ok {
			return
		}
		seen[p] = struct{}{}
		adj[u] = append(adj[u], uint64(v))
	}
	for _, e := range edges {
		add(e[0], e[1])
		if undirected {
			add(e[1], e[0])
		}
	}
	g := &Graph{Name: name, Offsets: make([]uint64, n+1)}
	total := 0
	for _, a := range adj {
		total += len(a)
	}
	g.Neighbors = make([]uint64, 0, total)
	for v := 0; v < n; v++ {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
		g.Neighbors = append(g.Neighbors, adj[v]...)
		g.Offsets[v+1] = uint64(len(g.Neighbors))
	}
	return g
}

// Property: on random edge lists full of duplicates, self-loops and
// out-of-range endpoints, FromEdges equals the map oracle, directed and
// undirected, down to n = 0 and 1.
func TestFromEdgesMatchesMapOracle(t *testing.T) {
	r := sim.NewRand(42)
	for trial := 0; trial < 400; trial++ {
		n := trial % 40
		if trial%7 == 0 {
			n = trial % 2
		}
		m := r.Intn(4*n + 3)
		edges := make([][2]int, m)
		for i := range edges {
			// Endpoints range over [-2, n+2) so some fall out of range,
			// and a small n makes duplicates and self-loops common.
			edges[i] = [2]int{r.Intn(n+4) - 2, r.Intn(n+4) - 2}
		}
		for _, undirected := range []bool{false, true} {
			got := FromEdges("p", n, edges, undirected)
			want := fromEdgesMap("p", n, edges, undirected)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d, undirected=%v, edges %v):\ngot  %+v\nwant %+v", trial, n, undirected, edges, got, want)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if len(got.Neighbors) != cap(got.Neighbors) {
				t.Fatalf("trial %d: neighbors len %d, cap %d", trial, len(got.Neighbors), cap(got.Neighbors))
			}
		}
	}
}

// Every Table 3 input at scales 0-2 and seeds 1-3 builds the same graph as
// the map oracle does from the same edge list.
func TestGenerateMatchesMapOracle(t *testing.T) {
	for _, in := range Inputs {
		for scale := ScaleTiny; scale <= ScaleMedium; scale++ {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/scale%d/seed%d", in, scale, seed), func(t *testing.T) {
					n, edges := generateEdges(in, scale, seed)
					if got, want := Generate(in, scale, seed), fromEdgesMap(string(in), n, edges, true); !reflect.DeepEqual(got, want) {
						t.Fatalf("Generate differs from the map oracle: %d/%d edges", got.NumEdges(), want.NumEdges())
					}
				})
			}
		}
	}
}

// BenchmarkGenerate times each Table 3 generator at the scale the fig13
// sweep uses (ScaleSmall).
func BenchmarkGenerate(b *testing.B) {
	for _, in := range Inputs {
		b.Run(string(in), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Generate(in, ScaleSmall, 1)
			}
		})
	}
}
