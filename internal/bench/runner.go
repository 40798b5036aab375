package bench

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fifer/internal/apps"
	"fifer/internal/core"
)

// Job describes one simulation: the same tuple RunOne accepts. Experiment
// drivers enumerate their full job list up front and hand it to a Runner,
// so the (app × input × system) sweeps that dominate regeneration time can
// fan out across cores.
type Job struct {
	App, Input string
	Kind       apps.SystemKind
	Merged     bool
	Override   func(*core.Config)
}

// key renders the job's identity for error messages and retry jitter.
func (j Job) key() string {
	s := fmt.Sprintf("%s/%s %v", j.App, j.Input, j.Kind)
	if j.Merged {
		s += " merged"
	}
	return s
}

// JobResult pairs a job with its outcome. Exactly one of Outcome/Err is
// meaningful: a failed simulation carries its error here instead of
// aborting the batch, so one bad configuration cannot take down or reorder
// the rest of a sweep.
type JobResult struct {
	Job     Job
	Outcome apps.Outcome
	Err     error

	// Attempts is how many times the job ran (1 + retries taken). It is 0
	// only for jobs the sweep never started (canceled before dispatch).
	Attempts int
	// Replayed marks a result served from a resumed journal rather than a
	// fresh simulation.
	Replayed bool
}

// ProgressFunc observes job completions. done counts completed jobs
// (1..total); calls are serialized, but arrive in completion order, not
// submission order. Every job is reported exactly once — including jobs
// replayed from a journal, retried (one call, after the final attempt),
// canceled mid-run, or skipped because the sweep was canceled before they
// started — so done always reaches total.
type ProgressFunc func(done, total int, res JobResult)

// Retry backoff defaults: attempt n waits base<<(n-1), capped, plus a
// deterministic jitter derived from the job key so simultaneous retries of
// a batch spread out identically on every run.
const (
	defaultRetryBase = 250 * time.Millisecond
	defaultRetryCap  = 5 * time.Second
)

// Runner executes batches of simulation jobs on a bounded worker pool.
//
// Results are returned in submission order regardless of completion order,
// and every simulation is self-contained (fresh RNG, its own simulated
// system), so a parallel run's outcomes are bit-identical to a serial
// run's. The determinism test in determinism_test.go pins this down. The
// only thing jobs share is their inputs: each distinct (input, scale, seed)
// of a batch is generated once, by the first job that needs it, and is
// read-only from then on. The cache lives only as long as one Run call.
//
// The Options carried into Run add the crash-safety layer: Cancel stops
// the sweep cooperatively, JobTimeout bounds each job's wall-clock time,
// Retries re-runs transient failures, and Journal makes finished work
// durable and resumable. None of them changes any result when unused.
type Runner struct {
	// Workers bounds the number of concurrently running simulations.
	// <= 0 means runtime.GOMAXPROCS(0); 1 reproduces fully serial
	// execution.
	Workers int
	// Progress, if non-nil, is invoked after each job completes.
	Progress ProgressFunc
	// Sweep labels this batch's records in the journal (e.g. "fig13") so
	// the same journal can serve several drivers without index collisions.
	Sweep string
	// RetryBase and RetryCap override the retry backoff (0 = defaults).
	RetryBase, RetryCap time.Duration

	// run stubs out RunOne in unit tests.
	run func(Job, Options) (apps.Outcome, error)
}

// Run executes jobs and returns one JobResult per job, index-aligned with
// the input slice. It always returns every job: errors are captured per
// job, never short-circuited, and when the sweep is canceled the jobs that
// never started still come back, carrying a canceled error.
func (r Runner) Run(opt Options, jobs []Job) []JobResult {
	if len(jobs) == 0 {
		// Explicit empty-batch path: nothing to clamp workers against,
		// nothing to journal, no Progress calls.
		return []JobResult{}
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	opt.inputs = &inputCache{}
	results := make([]JobResult, len(jobs))
	// Journal records commit in submission order through a reorder window:
	// a finished job waits until every earlier job has finished, so the
	// journal's bytes are the same at any worker count. Progress still
	// reports in completion order.
	finished := make([]bool, len(jobs))
	var mu sync.Mutex
	next, done := 0, 0
	finish := func(i int, res JobResult) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = res
		finished[i] = true
		for ; next < len(jobs) && finished[next]; next++ {
			if !results[next].Replayed {
				opt.Journal.record(r.Sweep, next, results[next])
			}
		}
		if r.Progress != nil {
			done++
			r.Progress(done, len(jobs), res)
		}
	}

	// Replay pass: serve journaled results first (in submission order),
	// then run only the remainder.
	pending := make([]int, 0, len(jobs))
	for i, j := range jobs {
		if res, ok := opt.Journal.replayResult(r.Sweep, i, j); ok {
			finish(i, res)
		} else {
			pending = append(pending, i)
		}
	}

	runJob := func(i int) {
		if canceled(opt.Cancel) {
			// Stopped admitting work: the job is reported (and journaled)
			// as canceled-before-start so a resume reschedules it.
			finish(i, JobResult{Job: jobs[i], Err: fmt.Errorf(
				"bench: %s skipped: sweep canceled before it started: %w", jobs[i].key(), core.ErrCanceled)})
			return
		}
		out, attempts, err := r.runWithRetry(jobs[i], opt)
		finish(i, JobResult{Job: jobs[i], Outcome: out, Err: err, Attempts: attempts})
	}

	if workers <= 1 {
		for _, i := range pending {
			runJob(i)
		}
		return results
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runJob(i)
			}
		}()
	}
	for _, i := range pending {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runWithRetry runs one job through the retry policy, returning the final
// attempt's outcome and how many attempts ran.
func (r Runner) runWithRetry(j Job, opt Options) (apps.Outcome, int, error) {
	budget := opt.MaxCycles
	for attempt := 1; ; attempt++ {
		out, err := r.attempt(j, opt, budget)
		if err == nil || attempt > opt.Retries || !transientError(err) || canceled(opt.Cancel) {
			return out, attempt, err
		}
		if errors.Is(err, ErrCycleBudget) {
			// Retrying with the same budget would burn the same cycles to
			// the same wall; double it instead.
			if budget == 0 {
				budget = HarnessMaxCycles
			}
			budget *= 2
		}
		if !sleepBackoff(j, attempt, r.RetryBase, r.RetryCap, opt.Cancel) {
			return out, attempt, err // canceled mid-backoff; keep the real error
		}
	}
}

// attempt runs the job once, with the per-job wall-clock deadline merged
// into the cooperative cancellation channel.
func (r Runner) attempt(j Job, opt Options, budget uint64) (apps.Outcome, error) {
	runOne := r.run
	if runOne == nil {
		runOne = func(j Job, opt Options) (apps.Outcome, error) {
			return RunOne(j.App, j.Input, j.Kind, j.Merged, opt, j.Override)
		}
	}
	// A panicking job must not take down (or reorder) the batch: recover it
	// into a per-job *PanicError and keep going.
	runOne = protect(runOne)

	jobOpt := opt
	jobOpt.MaxCycles = budget
	if opt.JobTimeout <= 0 {
		return runOne(j, jobOpt)
	}

	// Merge the sweep-wide Cancel and this job's deadline into one done
	// channel; timedOut disambiguates which of the two fired.
	jobDone := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(jobDone) }) }
	var timedOut atomic.Bool
	timer := time.AfterFunc(opt.JobTimeout, func() {
		timedOut.Store(true)
		stop()
	})
	defer timer.Stop()
	if opt.Cancel != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-opt.Cancel:
				stop()
			case <-finished:
			}
		}()
	}
	jobOpt.Cancel = jobDone

	out, err := runOne(j, jobOpt)
	if err != nil && timedOut.Load() && errors.Is(err, core.ErrCanceled) {
		err = fmt.Errorf("bench: %s: %w (%v): %w", j.key(), ErrJobTimeout, opt.JobTimeout, err)
	}
	return out, err
}

// sleepBackoff waits out the capped exponential backoff before retry
// `attempt`, with deterministic jitter from the job key. It returns false
// if the sweep was canceled during the wait.
func sleepBackoff(j Job, attempt int, base, cap time.Duration, cancel <-chan struct{}) bool {
	if base <= 0 {
		base = defaultRetryBase
	}
	if cap <= 0 {
		cap = defaultRetryCap
	}
	delay := base
	for i := 1; i < attempt && delay < cap; i++ {
		delay *= 2
	}
	if delay > cap {
		delay = cap
	}
	// Deterministic jitter in [0, delay/2): the same job retries after the
	// same wait on every run, but different jobs in a batch spread out.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", j.key(), attempt)
	if half := uint64(delay / 2); half > 0 {
		delay += time.Duration(h.Sum64() % half)
	}
	select {
	case <-time.After(delay):
		return true
	case <-cancel:
		return false
	}
}

// canceled reports whether the sweep's cancel channel is closed.
func canceled(cancel <-chan struct{}) bool {
	if cancel == nil {
		return false
	}
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// runner builds the Runner the experiment drivers share, honoring
// opt.Jobs. Options defaults to serial (Jobs == 0 → 1 worker) so library
// callers keep today's behavior unless they opt in; cmd/fiferbench
// defaults -j to runtime.NumCPU(). sweep labels the driver's records in
// the journal.
func (opt Options) runner(sweep string) Runner {
	workers := opt.Jobs
	if workers <= 0 {
		workers = 1
	}
	return Runner{Workers: workers, Progress: opt.Progress, Sweep: sweep}
}

// firstError returns the first failed result in submission order, or nil.
func firstError(results []JobResult) *JobResult {
	for i := range results {
		if results[i].Err != nil {
			return &results[i]
		}
	}
	return nil
}
