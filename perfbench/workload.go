package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fifer/internal/apps"
	"fifer/internal/apps/bfs"
	"fifer/internal/apps/cc"
	"fifer/internal/apps/graphpipe"
	"fifer/internal/apps/prd"
	"fifer/internal/apps/radii"
	"fifer/internal/apps/silo"
	"fifer/internal/apps/spmm"
	"fifer/internal/bench"
	"fifer/internal/core"
	"fifer/internal/graph"
	"fifer/internal/sim"
	"fifer/internal/sparse"
)

// job is one (app, input, system) simulation, run through bench.RunOne.
type job struct {
	App, Input string
	Kind       apps.SystemKind
}

func (j job) String() string { return j.App + "/" + j.Input + "/" + j.Kind.String() }

func (j job) cgra() bool { return j.Kind == apps.StaticPipe || j.Kind == apps.FiferPipe }

// workload is a fixed list of jobs. Why each one exists is in README.md.
type workload struct {
	jobs []job
	// fig13 runs the jobs as `fiferbench -exp fig13 -journal` does: through
	// bench.Fig13 on runtime.NumCPU() workers with a journal, followed by
	// the Fig. 13/14/15 tables. Other workloads run their jobs one after
	// another.
	fig13 bool
}

var fig13Apps = []string{bfs.Name, cc.Name}

var workloads = map[string]workload{
	"fig13-graph": {jobs: fig13Jobs(), fig13: true},
	"fifer-long": {jobs: []job{
		{radii.Name, string(graph.Rd), apps.FiferPipe},
		{prd.Name, string(graph.Hu), apps.FiferPipe},
		{bfs.Name, string(graph.In), apps.FiferPipe},
	}},
	"spmm-silo": {jobs: spmmSiloJobs()},
}

// fig13Jobs lists the jobs in the order bench.Fig13 submits them.
func fig13Jobs() []job {
	var jobs []job
	for _, app := range fig13Apps {
		for _, in := range bench.InputsOf(app) {
			for _, kind := range apps.Kinds {
				jobs = append(jobs, job{app, in, kind})
			}
		}
	}
	return jobs
}

func spmmSiloJobs() []job {
	var jobs []job
	for _, app := range []string{spmm.Name, silo.Name} {
		for _, in := range bench.InputsOf(app) {
			for _, kind := range []apps.SystemKind{apps.StaticPipe, apps.FiferPipe} {
				jobs = append(jobs, job{app, in, kind})
			}
		}
	}
	return jobs
}

// input is one distinct input of a workload. Layer names the package whose
// public generator makes it: graph, sparse or silo.
type input struct{ layer, name string }

func inputOf(j job) input {
	switch j.App {
	case spmm.Name:
		return input{"sparse", j.Input}
	case silo.Name:
		return input{"silo", j.Input}
	}
	return input{"graph", j.Input}
}

// inputs lists the workload's distinct inputs in job order.
func (w workload) inputs() []input {
	var out []input
	seen := map[input]bool{}
	for _, j := range w.jobs {
		if in := inputOf(j); !seen[in] {
			seen[in] = true
			out = append(out, in)
		}
	}
	return out
}

// sparseInput is SpMM's input: A in CSR form and in CSC form.
type sparseInput struct {
	a *sparse.CSR
	b *sparse.CSC
}

// generate makes one input through its package's public generator, the
// same calls the apps make at the start of every job.
func generate(in input, scale int, seed uint64) any {
	switch in.layer {
	case "sparse":
		a := sparse.Generate(sparse.Input(in.name), scale, seed)
		return sparseInput{a, sparse.Transpose(a)}
	case "silo":
		return silo.GenerateDataset(scale, seed)
	}
	return graph.Generate(graph.Input(in.name), graph.Scale(scale), seed)
}

// reference runs the pure-Go reference algorithm a graph or SpMM job is
// verified against, on the job's input.
func reference(j job, in any, scale int, seed uint64) {
	switch j.App {
	case bfs.Name:
		g := in.(*graph.Graph)
		graph.BFS(g, graphpipe.DefaultSource(g))
	case cc.Name:
		graph.CC(in.(*graph.Graph))
	case prd.Name:
		graph.PRD(in.(*graph.Graph), graph.DefaultPRD())
	case radii.Name:
		g := in.(*graph.Graph)
		// The seed mix is radii.Run's, so the sources are the job's.
		graph.Radii(g, graph.SampleSources(g, radii.Samples, sim.NewRand(seed^0x4add1)))
	case spmm.Name:
		m := in.(sparseInput)
		rows := spmmSample(m.a.NumRows, scale)
		sparse.SpMM(m.a, m.b, rows, rows)
	}
}

// spmmSample mirrors spmm.Run's evenly strided row and column sample.
func spmmSample(n, scale int) []int {
	k := min([]int{32, 64, 96}[scale], n)
	stride := max(n/k, 1)
	var out []int
	for i := 0; i < n && len(out) < k; i += stride {
		out = append(out, i)
	}
	return out
}

// pass is one execution of a workload's jobs.
type pass struct {
	wall     time.Duration
	outcomes []apps.Outcome // index-aligned with the workload's jobs
	errs     []error
	tables   []byte // fig13-graph's rendered tables
}

// run executes one pass. With rec nil the pass is untraced; otherwise every
// job, its set-up and its simulation are spans under parent. tmp holds the
// fig13-graph journal.
func (w workload) run(scale int, seed uint64, tmp string, rec *recorder, parent int) pass {
	opt := bench.Options{Scale: scale, Seed: seed}
	p := pass{outcomes: make([]apps.Outcome, len(w.jobs)), errs: make([]error, len(w.jobs))}
	start := time.Now()
	switch {
	case w.fig13 && rec == nil:
		w.fig13Sweep(&p, opt, tmp)
	case w.fig13:
		w.fig13Traced(&p, opt, rec, parent)
	default:
		for i, j := range w.jobs {
			p.outcomes[i], p.errs[i] = runJob(j, opt, rec, parent)
		}
	}
	p.wall = time.Since(start)
	return p
}

// fig13Sweep runs the jobs through bench.Fig13 with a journal and renders
// the tables, as `fiferbench -exp fig13 -journal` does.
func (w workload) fig13Sweep(p *pass, opt bench.Options, tmp string) {
	opt.Apps = fig13Apps
	opt.Jobs = runtime.NumCPU()
	journal, err := bench.CreateJournal(filepath.Join(tmp, "fig13.journal"), opt)
	if err != nil {
		p.failAll(err)
		return
	}
	opt.Journal = journal
	data, err := bench.Fig13(opt)
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		p.failAll(err)
		return
	}
	for i, c := range data.Cells {
		for k, kind := range apps.Kinds {
			idx := i*len(apps.Kinds) + k
			switch j := w.jobs[idx]; {
			case c.App != j.App || c.Input != j.Input:
				p.errs[idx] = fmt.Errorf("fig13 cell %d is %s/%s, want %s", i, c.App, c.Input, j)
			case c.Failed(kind) != "":
				p.errs[idx] = errors.New(c.Failed(kind))
			default:
				p.outcomes[idx] = c.Outcomes[kind]
			}
		}
	}
	p.tables = render(data, opt)
}

// fig13Traced runs the same jobs on the same number of workers, each one
// through runJob so that it is traced, and renders the tables from the
// collected outcomes. bench.Fig13 takes no per-job hook, so this pass
// calls bench.RunOne itself and runs without the journal.
func (w workload) fig13Traced(p *pass, opt bench.Options, rec *recorder, parent int) {
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p.outcomes[i], p.errs[i] = runJob(w.jobs[i], opt, rec, parent)
			}
		}()
	}
	for i := range w.jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	data := &bench.Fig13Data{}
	for i := 0; i < len(w.jobs); i += len(apps.Kinds) {
		c := bench.Fig13Cell{App: w.jobs[i].App, Input: w.jobs[i].Input, Outcomes: map[apps.SystemKind]apps.Outcome{}}
		for k, kind := range apps.Kinds {
			if err := p.errs[i+k]; err != nil {
				if c.Errs == nil {
					c.Errs = map[apps.SystemKind]string{}
				}
				c.Errs[kind] = bench.ErrorClass(err)
				continue
			}
			c.Outcomes[kind] = p.outcomes[i+k]
		}
		data.Cells = append(data.Cells, c)
	}
	opt.Apps = fig13Apps
	rec.timed("tables", "bench.render", parent, func() { p.tables = render(data, opt) })
}

func render(data *bench.Fig13Data, opt bench.Options) []byte {
	var buf bytes.Buffer
	data.Print(&buf)
	data.PrintFig14(&buf, opt)
	data.PrintFig15(&buf, opt)
	return buf.Bytes()
}

func (p *pass) failAll(err error) {
	for i := range p.errs {
		p.errs[i] = err
	}
}

// runJob runs one job through bench.RunOne. Traced, the job is a span with
// two children for CGRA systems: job-setup, from RunOne's entry to the
// Override call that RunOne makes after preparing the inputs and before
// building the system, and simulate, from that call to the return. The OOO
// systems never call Override, so their whole job is charged to ooo.
func runJob(j job, opt bench.Options, rec *recorder, parent int) (apps.Outcome, error) {
	if rec == nil {
		return bench.RunOne(j.App, j.Input, j.Kind, false, opt, nil)
	}
	if !j.cgra() {
		id := rec.begin(j.String(), "ooo.job", parent)
		defer rec.end(id)
		return bench.RunOne(j.App, j.Input, j.Kind, false, opt, nil)
	}
	id := rec.begin(j.String(), "bench.job", parent)
	defer rec.end(id)
	setup := rec.begin("job-setup", "apps.job_setup", id)
	sim := -1
	out, err := bench.RunOne(j.App, j.Input, j.Kind, false, opt, func(*core.Config) {
		rec.end(setup)
		layer := "core.static"
		if j.Kind == apps.FiferPipe {
			layer = "core.fifer"
		}
		sim = rec.begin("simulate", layer, id)
	})
	if sim >= 0 {
		rec.end(sim)
	} else {
		rec.end(setup)
	}
	return out, err
}
