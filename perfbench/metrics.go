package main

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"

	"fifer/internal/apps"
	"fifer/internal/core"
)

type metricSpec struct{ name, unit string }

// endToEnd are printed by an untraced run (-trace 0), perLayer by a traced
// run (-trace 1). BENCHMARK.json lists the same names and units; README.md
// defines each one.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"verified_frac", "ratio"},
	{"sim_cycles", "cycles"},
}

var perLayer = []metricSpec{
	{"graph.generate_s", "s"},
	{"sparse.generate_s", "s"},
	{"silo.dataset_s", "s"},
	{"apps.job_setup_s", "s"},
	{"ooo.job_s", "s"},
	{"ooo.instrs", "count"},
	{"core.fifer_job_s", "s"},
	{"core.static_job_s", "s"},
	{"core.ns_per_pe_cycle", "ns"},
	{"core.drm_tick_ns", "ns"},
	{"core.pe_cycles", "count"},
	{"core.firings", "count"},
	{"core.reconfigs", "count"},
	{"core.drm_accesses", "count"},
	{"core.idle_frac", "ratio"},
	{"core.stall_frac", "ratio"},
	{"core.queue_frac", "ratio"},
	{"core.reconfig_frac", "ratio"},
	{"mem.access_hit_ns", "ns"},
	{"mem.access_miss_ns", "ns"},
	{"mem.l1_accesses", "count"},
	{"mem.llc_accesses", "count"},
	{"mem.mem_lines", "count"},
	{"queue.enqdeq_ns", "ns"},
	{"queue.tokens", "count"},
	{"cgra.place_us", "us"},
	{"cgra.config_bytes", "count"},
	{"graph.reference_s", "s"},
	{"sparse.reference_s", "s"},
	{"bench.render_s", "s"},
	{"bench.job_p50_s", "s"},
	{"bench.job_max_s", "s"},
	{"bench.span_overhead_frac", "ratio"},
}

// check counts what the run attempted and what failed. Every job of every
// pass is one attempt; it fails when it returned an error, when its output
// did not verify against the reference, or when its outcome differs from
// the first untraced pass's. On fig13-graph the tables of every pass are one
// more attempt each, failed when they differ from the first pass's bytes.
func check(c config, plain, traced []pass) (attempted, failed int) {
	first := plain[0]
	fail := func(format string, args ...any) {
		failed++
		if failed <= 10 {
			fmt.Fprintf(c.log, "perfbench: %s: %s\n", c.name, fmt.Sprintf(format, args...))
		}
	}
	for _, p := range append(append([]pass{}, plain...), traced...) {
		for i, j := range c.w.jobs {
			attempted++
			switch {
			case p.errs[i] != nil:
				fail("%s: %v", j, p.errs[i])
			case !p.outcomes[i].Verified:
				fail("%s: output does not match the reference", j)
			case first.errs[i] == nil && !reflect.DeepEqual(p.outcomes[i], first.outcomes[i]):
				fail("%s: outcome differs from the first pass's", j)
			}
		}
		if c.w.fig13 {
			attempted++
			if !bytes.Equal(p.tables, first.tables) {
				fail("tables differ from the first pass's")
			}
		}
	}
	return attempted, failed
}

// counts derives the deterministic per-layer counts and cycle fractions of
// one pass. These are simulated statistics: a change that only makes the
// simulator faster leaves every one of them unchanged.
func counts(jobs []job, outs []apps.Outcome) map[string]float64 {
	var stack core.CPIStack
	var instrs, firings, reconfigs, drm, l1, llc, lines, tokens, cfgBytes uint64
	for i, o := range outs {
		l1 += o.Counts.L1Accesses
		llc += o.Counts.LLCAccesses
		lines += o.Counts.MemLines
		if !jobs[i].cgra() {
			instrs += o.Counts.Instrs
			continue
		}
		stack.Add(o.Pipe.Total)
		firings += o.Pipe.Firings
		reconfigs += o.Pipe.Reconfigs
		drm += o.Counts.DRMAccesses
		tokens += o.Counts.QueueTokens
		cfgBytes += o.Counts.ConfigBytes
	}
	_, stall, queue, reconfig, idle := stack.Fractions()
	return map[string]float64{
		"ooo.instrs":         float64(instrs),
		"core.pe_cycles":     float64(stack.Total()),
		"core.firings":       float64(firings),
		"core.reconfigs":     float64(reconfigs),
		"core.drm_accesses":  float64(drm),
		"core.idle_frac":     idle,
		"core.stall_frac":    stall,
		"core.queue_frac":    queue,
		"core.reconfig_frac": reconfig,
		"mem.l1_accesses":    float64(l1),
		"mem.llc_accesses":   float64(llc),
		"mem.mem_lines":      float64(lines),
		"queue.tokens":       float64(tokens),
		"cgra.config_bytes":  float64(cfgBytes),
	}
}

func simCycles(p pass) uint64 {
	var n uint64
	for _, o := range p.outcomes {
		n += o.Cycles
	}
	return n
}

func walls(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// quartiles returns the three cut points of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the default, "exclusive"), so the spreads
// printed here match that tool's. A single value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
