// Package cc is the connected-components benchmark (Sec. 7.2): successive
// breadth-first searches label every vertex with its component's smallest
// vertex id.
package cc

import (
	"fifer/internal/apps"
	"fifer/internal/apps/graphpipe"
	"fifer/internal/core"
	"fifer/internal/graph"
)

// Name is the benchmark's reporting name.
const Name = "CC"

// Run executes CC on the chosen system and input.
func Run(kind apps.SystemKind, input graph.Input, scale graph.Scale, seed uint64, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	return RunGraph(kind, graph.Generate(input, scale, seed), scale, merged, override)
}

// RunGraph executes CC on an already generated input graph, which it only
// reads.
func RunGraph(kind apps.SystemKind, g *graph.Graph, scale graph.Scale, merged bool, override func(*core.Config)) (apps.Outcome, error) {
	return graphpipe.RunApp(kind, graphpipe.ModeCC, g, nil, int(scale), merged, override)
}
