// Package bfs is the breadth-first-search benchmark (Sec. 2.2, Fig. 1):
// single-source shortest hop distances over the Table 3 input graphs.
package bfs

import (
	"fifer/internal/apps"
	"fifer/internal/apps/graphpipe"
	"fifer/internal/core"
	"fifer/internal/graph"
)

// Name is the benchmark's reporting name.
const Name = "BFS"

// Run executes BFS on the chosen system and input.
func Run(kind apps.SystemKind, input graph.Input, scale graph.Scale, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	return RunGraph(kind, graph.Generate(input, scale, seed), scale, merged, override)
}

// RunGraph executes BFS on an already generated input graph, which it only
// reads.
func RunGraph(kind apps.SystemKind, g *graph.Graph, scale graph.Scale, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	src := graphpipe.DefaultSource(g)
	return graphpipe.RunApp(kind, graphpipe.ModeBFS, g, []int{src}, int(scale), merged, override)
}
