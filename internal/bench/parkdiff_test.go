package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// This file widens the harness-level parking contract (DESIGN.md §10)
// beyond ffdiff_test.go: every simulation surface the harness exports —
// outcomes, trace events, metrics rows, goldens, journals — must be
// byte-identical whether the core parks inert PEs (the default kernel) or
// ticks every PE on every cycle (Options.NoFastForward, the oracle), on more
// input seeds, under tight observation cadences, and across worker counts.
// The "Shard" in the test names (and "shardsK" in the subtest names) dates
// from the retired sharded kernel this suite used to pin; every test here
// compares per-PE parking against the oracle, and the names are kept so the
// recorded test IDs stay stable. The core-level property tests
// live in internal/core/parking_test.go.

// TestShardInvarianceApps runs every app on the parking kernel against the
// oracle, untraced and traced, serially and with parallel jobs: outcomes,
// event streams, and metrics rows must all be DeepEqual. The shardsK in a
// case name is now the input seed K, so this matrix covers two more input
// sets than ffdiff_test.go's seed-1 sweep.
func TestShardInvarianceApps(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential sweep")
	}
	jobs := ffJobs()

	run := func(seed uint64, oracle, traced bool, workers int) ([]JobResult, *TraceSink) {
		opt := Options{Scale: 0, Seed: seed, NoFastForward: oracle}
		if traced {
			opt.Trace = &TraceSink{SampleCycles: 512, BufEvents: 1 << 14}
		}
		return Runner{Workers: workers}.Run(opt, jobs), opt.Trace
	}

	// One oracle baseline per seed and tracing mode; ffdiff_test.go already
	// pins that -j does not change results.
	type baseline struct {
		results []JobResult
		sink    *TraceSink
	}
	oracle := map[string]baseline{}
	for _, tc := range []struct {
		name    string
		seed    uint64
		traced  bool
		workers int
	}{
		{"shards2-untraced-j1", 2, false, 1},
		{"shards2-untraced-jN", 2, false, runtime.NumCPU()},
		{"shards2-traced-j1", 2, true, 1},
		{"shards2-traced-jN", 2, true, runtime.NumCPU()},
		{"shards4-untraced-j1", 4, false, 1},
		{"shards4-untraced-jN", 4, false, runtime.NumCPU()},
		{"shards4-traced-j1", 4, true, 1},
		{"shards4-traced-jN", 4, true, runtime.NumCPU()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := fmt.Sprintf("%d/%v", tc.seed, tc.traced)
			want, ok := oracle[key]
			if !ok {
				want.results, want.sink = run(tc.seed, true, tc.traced, 1)
				oracle[key] = want
			}
			parked, parkedSink := run(tc.seed, false, tc.traced, tc.workers)
			for i, j := range jobs {
				if parked[i].Err != nil {
					t.Fatalf("%s parking: %v", j.key(), parked[i].Err)
				}
				if want.results[i].Err != nil {
					t.Fatalf("%s oracle: %v", j.key(), want.results[i].Err)
				}
				if !reflect.DeepEqual(parked[i].Outcome, want.results[i].Outcome) {
					t.Errorf("%s: parking outcome differs from the oracle\nparking: %+v\noracle:  %+v",
						j.key(), parked[i].Outcome, want.results[i].Outcome)
				}
			}
			if !tc.traced {
				return
			}
			pj, wj := parkedSink.Jobs(), want.sink.Jobs()
			if len(pj) == 0 || len(pj) != len(wj) {
				t.Fatalf("traced job counts: parking=%d oracle=%d", len(pj), len(wj))
			}
			for i := range pj {
				if pj[i].Key != wj[i].Key {
					t.Fatalf("traced job keys diverge: %q vs %q", pj[i].Key, wj[i].Key)
				}
				if pj[i].Collector.Len() == 0 {
					t.Errorf("%s: traced run captured no events", pj[i].Key)
				}
				if !reflect.DeepEqual(pj[i].Collector.Events(), wj[i].Collector.Events()) {
					t.Errorf("%s: parking event stream differs from the oracle", pj[i].Key)
				}
				if !reflect.DeepEqual(pj[i].Collector.Rows(), wj[i].Collector.Rows()) {
					t.Errorf("%s: parking metrics rows differ from the oracle", pj[i].Key)
				}
			}
		})
	}
}

// TestGoldenFig13Sharded re-renders the Fig. 13 golden on the parking
// kernel with the watchdog and audit cadences tightened, so parked PEs are
// settled and fast-forward windows clamped at thousands of extra
// boundaries; the tables must still match the committed golden byte for
// byte.
func TestGoldenFig13Sharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := goldenOpt("BFS", "SpMM")
	opt.WatchdogCycles = 2048
	opt.AuditCycles = 64
	d, err := Fig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	d.Print(&b)
	checkGolden(t, "fig13", b.String())
}

// TestShardJournalBytesIdentical journals the same sweep on the parking
// kernel with one worker and on the oracle with four: the two journal files
// must be byte-identical, CRCs included. Journal records carry no
// wall-clock fields and commit in submission order, so any divergence means
// either the kernel or the worker count changed what was written.
func TestShardJournalBytesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	journaled := func(name string, oracle bool, workers int) []byte {
		opt := goldenOpt("BFS", "SpMM")
		opt.NoFastForward = oracle
		opt.Jobs = workers
		path := filepath.Join(dir, name)
		j, err := CreateJournal(path, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Journal = j
		if _, err := Fig13(opt); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	parked := journaled("parking.jsonl", false, 1)
	oracle := journaled("oracle.jsonl", true, 4)
	if string(parked) != string(oracle) {
		t.Errorf("journal bytes diverge between parking -j1 (%d B) and oracle -j4 (%d B)",
			len(parked), len(oracle))
	}
	if len(parked) == 0 {
		t.Fatal("journal files are empty")
	}
}
