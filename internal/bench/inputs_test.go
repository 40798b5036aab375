package bench

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fifer/internal/apps"
	"fifer/internal/apps/bfs"
	"fifer/internal/apps/cc"
)

// cacheSpy is a Runner whose jobs run through RunOne while it records the
// input caches the batch handed them.
type cacheSpy struct {
	mu     sync.Mutex
	caches map[*inputCache]bool
}

func (s *cacheSpy) runner(workers int) Runner {
	s.caches = map[*inputCache]bool{}
	return Runner{Workers: workers, run: func(j Job, opt Options) (apps.Outcome, error) {
		s.mu.Lock()
		s.caches[opt.inputs] = true
		s.mu.Unlock()
		return RunOne(j.App, j.Input, j.Kind, j.Merged, opt, j.Override)
	}}
}

// only returns the one cache every job of the batch saw.
func (s *cacheSpy) only(t *testing.T) *inputCache {
	t.Helper()
	if len(s.caches) != 1 {
		t.Fatalf("batch used %d input caches, want 1", len(s.caches))
	}
	for c := range s.caches {
		if c == nil {
			t.Fatal("batch ran without an input cache")
		}
		return c
	}
	return nil
}

// A Fig. 13 BFS+CC batch is 40 jobs over five graphs; on four workers it
// must build each graph exactly once.
func TestRunnerBuildsEachInputOnce(t *testing.T) {
	var jobs []Job
	for _, app := range []string{bfs.Name, cc.Name} {
		for _, in := range InputsOf(app) {
			for _, kind := range apps.Kinds {
				jobs = append(jobs, Job{App: app, Input: in, Kind: kind})
			}
		}
	}
	var spy cacheSpy
	results := spy.runner(4).Run(Options{Scale: 0, Seed: 1}, jobs)
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Job.key(), res.Err)
		}
	}
	if got := spy.only(t).builds.Load(); got != 5 {
		t.Fatalf("batch built %d inputs, want 5 (one per graph)", got)
	}
}

// All six apps through one batch, sharing its inputs across apps, systems
// and workers, give exactly the outcomes of RunOne generating every job's
// input afresh.
func TestCachedMatchesFreshInputs(t *testing.T) {
	opt := Options{Scale: 0, Seed: 1}
	var jobs []Job
	for _, app := range AppNames {
		in := InputsOf(app)[0]
		for _, kind := range apps.Kinds {
			jobs = append(jobs, Job{App: app, Input: in, Kind: kind})
		}
	}
	var spy cacheSpy
	results := spy.runner(4).Run(opt, jobs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Job.key(), res.Err)
		}
		want, err := RunOne(jobs[i].App, jobs[i].Input, jobs[i].Kind, false, opt, nil)
		if err != nil {
			t.Fatalf("%s fresh: %v", jobs[i].key(), err)
		}
		if !reflect.DeepEqual(res.Outcome, want) {
			t.Fatalf("%s: cached-input outcome differs from a fresh run", jobs[i].key())
		}
	}
	// Hu serves the four graph apps; FS and the YCSB-C dataset the others.
	if got := spy.only(t).builds.Load(); got != 3 {
		t.Fatalf("batch built %d inputs, want 3", got)
	}
}

// When an input's generator panics, every job of the batch that needs it
// fails with the generator's panic, not with a nil input.
func TestRunnerInputPanicReachesEveryJob(t *testing.T) {
	jobs := []Job{
		{App: bfs.Name, Input: "Xx", Kind: apps.FiferPipe},
		{App: cc.Name, Input: "Xx", Kind: apps.StaticPipe},
	}
	var spy cacheSpy
	results := spy.runner(2).Run(Options{Scale: 0, Seed: 1}, jobs)
	var first *PanicError
	for _, res := range results {
		var pe *PanicError
		if !errors.As(res.Err, &pe) {
			t.Fatalf("%s: err = %v, want *PanicError", res.Job.key(), res.Err)
		}
		if pe.App != res.Job.App || pe.Input != "Xx" || !strings.Contains(pe.Error(), `unknown input "Xx"`) {
			t.Fatalf("%s: panic error does not name the job and input: %v", res.Job.key(), pe)
		}
		if first == nil {
			first = pe
		} else if pe.Value != first.Value || !bytes.Equal(pe.Stack, first.Stack) {
			t.Fatalf("jobs report different failures:\n%v\n%v", first, pe)
		}
	}
	if got := spy.only(t).builds.Load(); got != 1 {
		t.Fatalf("batch built %d inputs, want 1", got)
	}
}
