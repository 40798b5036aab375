package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"fifer/internal/apps"
)

// stubJobs builds n distinguishable jobs for stubbed-runner tests.
func stubJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{App: "BFS", Input: fmt.Sprintf("in%d", i), Kind: apps.FiferPipe}
	}
	return jobs
}

// TestRunnerSubmissionOrder makes later-submitted jobs finish first and
// checks results still come back index-aligned with the job slice.
func TestRunnerSubmissionOrder(t *testing.T) {
	const n = 16
	r := Runner{
		Workers: 4,
		run: func(j Job, _ Options) (apps.Outcome, error) {
			var i int
			fmt.Sscanf(j.Input, "in%d", &i)
			time.Sleep(time.Duration(n-i) * time.Millisecond) // invert completion order
			return apps.Outcome{Cycles: uint64(i) + 1}, nil
		},
	}
	results := r.Run(Options{}, stubJobs(n))
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Job.Input != fmt.Sprintf("in%d", i) {
			t.Fatalf("result %d holds job %q: results reordered", i, res.Job.Input)
		}
		if res.Outcome.Cycles != uint64(i)+1 {
			t.Fatalf("result %d has Cycles=%d, want %d", i, res.Outcome.Cycles, i+1)
		}
	}
}

// TestRunnerJournalSubmissionOrder forces four workers whatever the host's
// CPU count and makes the jobs finish in reverse submission order: the
// journal must still hold its records in submission order, byte-identical
// to a one-worker run's.
func TestRunnerJournalSubmissionOrder(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	journaled := func(name string, workers int) []byte {
		// Job i may finish only after job i+1 has, so with all four running
		// at once they complete n-1, ..., 0. One worker runs them in order.
		finished := make([]chan struct{}, n+1)
		for i := range finished {
			finished[i] = make(chan struct{})
		}
		close(finished[n])
		r := Runner{
			Workers: workers,
			run: func(j Job, _ Options) (apps.Outcome, error) {
				var i int
				fmt.Sscanf(j.Input, "in%d", &i)
				if workers > 1 {
					<-finished[i+1]
				}
				close(finished[i])
				return apps.Outcome{Cycles: uint64(i) + 1}, nil
			},
		}
		path := filepath.Join(dir, name)
		opt := Options{Scale: 0, Seed: 1}
		j, err := CreateJournal(path, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Journal = j
		r.Run(opt, stubJobs(n))
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := journaled("j1.jsonl", 1)
	parallel := journaled("j4.jsonl", 4)
	if string(parallel) != string(serial) {
		t.Errorf("journal bytes depend on the worker count\n-j 4:\n%s\n-j 1:\n%s", parallel, serial)
	}
}

// TestRunnerWorkerBound checks concurrency never exceeds Workers.
func TestRunnerWorkerBound(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	r := Runner{
		Workers: workers,
		run: func(Job, Options) (apps.Outcome, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return apps.Outcome{}, nil
		},
	}
	r.Run(Options{}, stubJobs(24))
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds Workers=%d", got, workers)
	}
}

// TestRunnerErrorIsolation checks one failing job neither aborts nor
// reorders the rest of the batch.
func TestRunnerErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	r := Runner{
		Workers: 4,
		run: func(j Job, _ Options) (apps.Outcome, error) {
			if j.Input == "in5" {
				return apps.Outcome{}, boom
			}
			return apps.Outcome{Cycles: 7}, nil
		},
	}
	results := r.Run(Options{}, stubJobs(10))
	for i, res := range results {
		if i == 5 {
			if !errors.Is(res.Err, boom) {
				t.Fatalf("job 5: err = %v, want boom", res.Err)
			}
			continue
		}
		if res.Err != nil || res.Outcome.Cycles != 7 {
			t.Fatalf("job %d: err=%v cycles=%d; failure leaked into healthy jobs", i, res.Err, res.Outcome.Cycles)
		}
	}
	if bad := firstError(results); bad == nil || bad.Job.Input != "in5" {
		t.Fatalf("firstError = %+v, want job in5", bad)
	}
}

// TestRunnerProgress checks the callback is serialized and counts every
// completion exactly once.
func TestRunnerProgress(t *testing.T) {
	const n = 12
	var calls int
	seen := map[string]bool{}
	r := Runner{
		Workers: 4,
		run: func(Job, Options) (apps.Outcome, error) {
			return apps.Outcome{}, nil
		},
		// Progress runs under the runner's mutex, so plain ints/maps are
		// safe here; the race detector verifies that claim.
		Progress: func(done, total int, res JobResult) {
			calls++
			if done != calls {
				t.Errorf("done=%d on call %d: progress not monotone", done, calls)
			}
			if total != n {
				t.Errorf("total=%d, want %d", total, n)
			}
			if seen[res.Job.Input] {
				t.Errorf("job %s reported twice", res.Job.Input)
			}
			seen[res.Job.Input] = true
		},
	}
	r.Run(Options{}, stubJobs(n))
	if calls != n {
		t.Fatalf("progress called %d times, want %d", calls, n)
	}
}

// TestRunnerDefaultWorkers checks Workers<=0 still runs everything.
func TestRunnerDefaultWorkers(t *testing.T) {
	r := Runner{run: func(Job, Options) (apps.Outcome, error) {
		return apps.Outcome{Cycles: 1}, nil
	}}
	results := r.Run(Options{}, stubJobs(5))
	for i, res := range results {
		if res.Outcome.Cycles != 1 {
			t.Fatalf("job %d did not run", i)
		}
	}
}

// TestOptionsRunnerSerialDefault checks Options defaults to one worker so
// library callers keep serial behavior unless they opt in.
func TestOptionsRunnerSerialDefault(t *testing.T) {
	if w := (Options{}).runner("test").Workers; w != 1 {
		t.Fatalf("default worker count = %d, want 1", w)
	}
	if w := (Options{Jobs: 6}).runner("test").Workers; w != 6 {
		t.Fatalf("Jobs=6 worker count = %d, want 6", w)
	}
}
