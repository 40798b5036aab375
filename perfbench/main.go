// Command perfbench is the simulator's benchmark. It runs one workload for
// a fixed time, checks every output, and prints the workload's metrics as
// the last line of its output, one JSON object. README.md lists the
// workloads and metrics and says how to run it.
//
//	perfbench -workload fifer-long -seed 2 -seconds 35 -trace 0
//	perfbench -compare before.txt after.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated inputs (2 is the held-out seed)")
	seconds := fs.Float64("seconds", 10, "run passes for about this many seconds")
	trace := fs.Int("trace", 0, "0: untraced passes, end-to-end metrics; 1: traced passes, per-layer metrics")
	scale := fs.Int("scale", 1, "input scale: 0 tiny, 1 small")
	spansDir := fs.String("spans-dir", "", "write a traced run's spans as JSON to this directory")
	compare := fs.Bool("compare", false, "compare two files of captured output: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	case *scale != 0 && *scale != 1:
		fmt.Fprintln(stderr, "perfbench: -scale must be 0 or 1")
		return 2
	}
	c := config{
		name: *name, w: w, scale: *scale, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1,
		spansDir: *spansDir, log: stderr,
	}
	res, err := measure(c)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env, _ := json.Marshal(map[string]any{"env": environment{
		Workload: c.name, Seed: c.seed, Scale: c.scale, Trace: *trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version(),
	}})
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", env, out)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment is printed on the line before each result, so that a file of
// captured output says what every result was measured on.
type environment struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Scale      int    `json:"scale"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Go         string `json:"go"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	name     string
	w        workload
	scale    int
	seed     uint64
	seconds  time.Duration
	traced   bool
	spansDir string
	log      io.Writer
}

// setupReps is how many times a run generates the workload's inputs;
// setup_s is the median.
const setupReps = 5

// measure makes one run: set-up, then passes until the time is spent, then
// the output checks. Untraced, every pass is timed whole. Traced, each
// untraced pass is followed by a traced one and by timed calls of the
// reference algorithms, and the micro-loops run at the end.
func measure(c config) (result, error) {
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)

	var rec *recorder
	root := -1
	if c.traced {
		rec = newRecorder()
		root = rec.begin(c.name, "run", -1)
	}
	setupS, genS, inputs := setup(c, rec, root)

	var plain, traced []pass
	var rounds []map[string]float64
	var peaks []float64
	start := time.Now()
	for len(plain) == 0 || time.Since(start)+time.Since(start)/time.Duration(len(plain)) <= c.seconds {
		runtime.GC()
		id := rec.begin("untraced pass", "pass", root)
		mem := watchMemory()
		plain = append(plain, c.w.run(c.scale, c.seed, tmp, nil, -1))
		peaks = append(peaks, mem.end())
		rec.end(id)
		fmt.Fprintf(c.log, "perfbench: %s pass %d: %.3fs, peak %.1f MiB\n", c.name, len(plain), plain[len(plain)-1].wall.Seconds(), peaks[len(peaks)-1])
		if !c.traced {
			continue
		}
		runtime.GC()
		id = rec.begin("traced pass", "pass", root)
		mem = watchMemory()
		p := c.w.run(c.scale, c.seed, tmp, rec, id)
		mem.end()
		rec.end(id)
		traced = append(traced, p)
		ref := rec.begin("reference", "reference", root)
		for _, j := range referenceJobs(c.w.jobs) {
			in := inputs[inputOf(j)]
			rec.timed(j.App+"/"+j.Input, inputOf(j).layer+".reference", ref, func() { reference(j, in, c.scale, c.seed) })
		}
		rec.end(ref)
		rounds = append(rounds, roundTimes(rec, id, ref))
	}

	attempted, failed := check(c, plain, traced)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	set := func(specs []metricSpec, vals map[string]float64) error {
		for _, s := range specs {
			v, ok := vals[s.name]
			if !ok {
				return fmt.Errorf("metric %s was not measured", s.name)
			}
			res.Metrics[s.name] = metric{v, s.unit}
		}
		return nil
	}
	if !c.traced {
		// The host's speed moves by up to a third from one stretch of a few
		// seconds to the next, and a run meets several such stretches. The
		// mean pass weighs each by its length; the median or the fastest
		// pass jumps with whichever kind of stretch the run met most often
		// or at all, and spread more between consecutive runs. A pass's
		// peak memory sits at one of two levels for many passes in a row,
		// depending on where the collector's cycles fall; the least peak
		// is the pass's need under the most favourable timing.
		vals := map[string]float64{
			"wall_s":        mean(walls(plain)),
			"sim_cycles":    float64(simCycles(plain[0])),
			"setup_s":       setupS,
			"peak_rss_mb":   minOf(peaks),
			"verified_frac": 1 - float64(failed)/float64(attempted),
		}
		vals["sim_cycles_per_s"] = vals["sim_cycles"] / vals["wall_s"]
		return res, set(endToEnd, vals)
	}

	vals := counts(c.w.jobs, plain[0].outcomes)
	for k, v := range genS {
		vals[k] = v
	}
	for k := range rounds[0] {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, r[k])
		}
		vals[k] = median(xs)
	}
	vals["core.ns_per_pe_cycle"] = 0
	if pe := vals["core.pe_cycles"]; pe > 0 {
		vals["core.ns_per_pe_cycle"] = (vals["core.fifer_job_s"] + vals["core.static_job_s"]) * 1e9 / pe
	}
	plainWall := median(walls(plain))
	vals["bench.span_overhead_frac"] = (median(walls(traced)) - plainWall) / plainWall

	microID := rec.begin("micro", "micro", root)
	mv, err := runMicros(rec, microID)
	rec.end(microID)
	if err != nil {
		return result{}, err
	}
	for k, v := range mv {
		vals[k] = v
	}
	rec.end(root)
	if c.spansDir != "" {
		if err := rec.write(c.spansDir, c.name, c.seed); err != nil {
			return result{}, err
		}
	}
	return res, set(perLayer, vals)
}

// setup generates every distinct input of the workload once through its
// public generator, setupReps times. It returns the median total time in
// seconds, the median time per distinct input of each generator layer, and
// the last repetition's inputs when traced (they feed the reference
// algorithms) or nil.
func setup(c config, rec *recorder, root int) (float64, map[string]float64, map[input]any) {
	ins := c.w.inputs()
	var totals []float64
	byLayer := map[string][]float64{}
	var kept map[input]any
	for range setupReps {
		runtime.GC()
		id := rec.begin("setup", "setup", root)
		made := map[input]any{}
		sums := map[string]float64{}
		for _, in := range ins {
			d := rec.timed(in.name, in.layer+".generate", id, func() { made[in] = generate(in, c.scale, c.seed) })
			sums[in.layer] += d.Seconds()
		}
		rec.end(id)
		var total float64
		for _, s := range sums {
			total += s
		}
		totals = append(totals, total)
		for _, l := range []string{"graph", "sparse", "silo"} {
			byLayer[l] = append(byLayer[l], sums[l])
		}
		if rec != nil {
			kept = made
		}
	}
	n := map[string]int{}
	for _, in := range ins {
		n[in.layer]++
	}
	per := map[string]float64{}
	for l, name := range map[string]string{"graph": "graph.generate_s", "sparse": "sparse.generate_s", "silo": "silo.dataset_s"} {
		per[name] = 0
		if n[l] > 0 {
			per[name] = median(byLayer[l]) / float64(n[l])
		}
	}
	return median(totals), per, kept
}

// referenceJobs lists one job per distinct (app, input) that has a graph
// or sparse reference algorithm.
func referenceJobs(jobs []job) []job {
	var out []job
	seen := map[[2]string]bool{}
	for _, j := range jobs {
		if k := [2]string{j.App, j.Input}; !seen[k] && inputOf(j).layer != "silo" {
			seen[k] = true
			out = append(out, j)
		}
	}
	return out
}

// roundTimes reads one traced pass's layer times, in seconds, from its
// spans and those of the reference calls after it.
func roundTimes(rec *recorder, passID, refID int) map[string]float64 {
	var jobs []float64
	for _, s := range rec.under(passID, "bench.job", "ooo.job") {
		jobs = append(jobs, s.dur().Seconds())
	}
	sec := func(root int, layer string) float64 { return rec.total(root, layer).Seconds() }
	return map[string]float64{
		"apps.job_setup_s":   sec(passID, "apps.job_setup"),
		"ooo.job_s":          sec(passID, "ooo.job"),
		"core.fifer_job_s":   sec(passID, "core.fifer"),
		"core.static_job_s":  sec(passID, "core.static"),
		"bench.render_s":     sec(passID, "bench.render"),
		"graph.reference_s":  sec(refID, "graph.reference"),
		"sparse.reference_s": sec(refID, "sparse.reference"),
		"bench.job_p50_s":    median(jobs),
		"bench.job_max_s":    maxOf(jobs),
	}
}
