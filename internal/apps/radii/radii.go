// Package radii is the graph-radii-estimation benchmark (Sec. 7.2): BFS
// from a random sample of sources, recording each vertex's maximum observed
// distance. The sample is seeded so every system sees identical sources.
package radii

import (
	"fifer/internal/apps"
	"fifer/internal/apps/graphpipe"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/sim"
)

// Name is the benchmark's reporting name.
const Name = "Radii"

// Samples is the number of BFS sources (the paper samples iterations to
// bound simulation time; we do the same).
const Samples = 4

// Run executes Radii on the chosen system and input.
func Run(kind apps.SystemKind, input graph.Input, scale graph.Scale, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	return RunGraph(kind, graph.Generate(input, scale, seed), scale, seed, merged, override)
}

// RunGraph executes Radii on an already generated input graph, which it
// only reads. The BFS sources are sampled from g with a generator seeded
// by seed.
func RunGraph(kind apps.SystemKind, g *graph.Graph, scale graph.Scale, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	sources := graph.SampleSources(g, Samples, sim.NewRand(seed^0x4add1))
	return graphpipe.RunApp(kind, graphpipe.ModeRadii, g, sources, int(scale), merged, override)
}
