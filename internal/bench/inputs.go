package bench

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

	"fifer/internal/apps/silo"
	"fifer/internal/graph"
	"fifer/internal/sparse"
)

// inputCache holds the inputs one Runner.Run batch generates, so each
// (input, scale, seed) is built once no matter how many systems, apps or
// workers use it. The first job to ask for an input builds it while the
// others wait; after that an entry is only read, never written, and the
// cache is dropped when the batch returns. A nil cache generates every
// input afresh, which is what a direct RunOne call gets.
type inputCache struct {
	mu      sync.Mutex
	entries map[inputKey]*inputEntry
	builds  atomic.Int64 // generator calls: a deterministic work counter
}

// inputKey names one generated input. layer separates the generators,
// whose input names could otherwise coincide.
type inputKey struct {
	layer, input string
	scale        int
	seed         uint64
}

type inputEntry struct {
	once  sync.Once
	val   any
	fault *buildPanic // set when the build panicked
}

// buildPanic carries a generator's panic, with the stack of the build, to
// every job that asked for the input. protect turns it into that job's
// *PanicError.
type buildPanic struct {
	value any
	stack []byte
}

// cached returns the input named by k, building it with build on first use.
// If the build panicked, every caller panics with the same *buildPanic.
func cached[T any](c *inputCache, k inputKey, build func() T) T {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = map[inputKey]*inputEntry{}
	}
	e := c.entries[k]
	if e == nil {
		e = &inputEntry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.fault = &buildPanic{value: r, stack: debug.Stack()}
			}
		}()
		c.builds.Add(1)
		e.val = build()
	})
	if e.fault != nil {
		panic(e.fault)
	}
	return e.val.(T)
}

// graph returns the Table 3 graph input at scale and seed.
func (c *inputCache) graph(in string, scale int, seed uint64) *graph.Graph {
	return cached(c, inputKey{"graph", in, scale, seed}, func() *graph.Graph {
		return graph.Generate(graph.Input(in), graph.Scale(scale), seed)
	})
}

// spmmInput is SpMM's input: A in CSR and its transpose in CSC.
type spmmInput struct {
	a *sparse.CSR
	b *sparse.CSC
}

// matrices returns the Table 4 matrix input at scale and seed.
func (c *inputCache) matrices(in string, scale int, seed uint64) spmmInput {
	return cached(c, inputKey{"sparse", in, scale, seed}, func() spmmInput {
		a := sparse.Generate(sparse.Input(in), scale, seed)
		return spmmInput{a, sparse.Transpose(a)}
	})
}

// dataset returns Silo's YCSB-C dataset at scale and seed.
func (c *inputCache) dataset(scale int, seed uint64) silo.Dataset {
	return cached(c, inputKey{"silo", "", scale, seed}, func() silo.Dataset {
		return silo.GenerateDataset(scale, seed)
	})
}
