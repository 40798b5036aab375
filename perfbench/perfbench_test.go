package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runTiny runs the command at scale 0 and returns its parsed last line.
func runTiny(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-scale", "0", "-seconds", "0", "-trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s -trace %s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	return res
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload untraced and
// traced at scale 0 and checks that each prints exactly the metrics that
// BENCHMARK.json names, with the same units, and that every output checks.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, command has %v", names, workloadNames())
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range b.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, w := range names {
		for _, trace := range []string{"0", "1"} {
			res := runTiny(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s -trace %s printed %v, BENCHMARK.json has %v", w, trace, got, want[trace])
			}
		}
	}
}

// TestTracedPassMatchesUntraced runs one untraced and one traced pass of
// every workload and checks that the outcomes and tables are identical.
func TestTracedPassMatchesUntraced(t *testing.T) {
	tmp := t.TempDir()
	for _, name := range workloadNames() {
		w := workloads[name]
		plain := w.run(0, 2, tmp, nil, -1)
		rec := newRecorder()
		traced := w.run(0, 2, tmp, rec, rec.begin(name, "pass", -1))
		if !reflect.DeepEqual(plain.outcomes, traced.outcomes) || !reflect.DeepEqual(plain.errs, traced.errs) {
			t.Errorf("%s: traced outcomes differ from untraced", name)
		}
		if !bytes.Equal(plain.tables, traced.tables) {
			t.Errorf("%s: traced tables differ from untraced", name)
		}
		if w.fig13 && len(plain.tables) == 0 {
			t.Errorf("%s: no tables rendered", name)
		}
		if n := len(rec.under(0, "bench.job", "ooo.job")); n != len(w.jobs) {
			t.Errorf("%s: %d job spans, want %d", name, n, len(w.jobs))
		}
	}
}

// TestCheckCountsEveryFailure feeds check passes with each kind of failure
// it must catch.
func TestCheckCountsEveryFailure(t *testing.T) {
	w := workloads["fifer-long"]
	good := w.run(0, 1, t.TempDir(), nil, -1)
	clone := func() pass {
		p := good
		p.outcomes = append(p.outcomes[:0:0], good.outcomes...)
		p.errs = append(p.errs[:0:0], good.errs...)
		return p
	}
	c := config{name: "fifer-long", w: w, log: io.Discard}
	if a, f := check(c, []pass{good, clone()}, []pass{clone()}); a != 3*len(w.jobs) || f != 0 {
		t.Fatalf("clean passes: attempted %d failed %d", a, f)
	}
	unverified, differs, errored := clone(), clone(), clone()
	unverified.outcomes[0].Verified = false
	differs.outcomes[1].Cycles++
	errored.errs[2] = errors.New("boom")
	for name, p := range map[string]pass{"unverified": unverified, "differs": differs, "errored": errored} {
		if _, f := check(c, []pass{good}, []pass{p}); f != 1 {
			t.Errorf("%s: failed = %d, want 1", name, f)
		}
	}

	fig := config{name: "fig13-graph", w: workload{fig13: true}, log: io.Discard}
	if a, f := check(fig, []pass{{tables: []byte("a")}}, []pass{{tables: []byte("b")}}); a != 2 || f != 1 {
		t.Errorf("differing tables: attempted %d failed %d, want 2 and 1", a, f)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles(xs, n=4) in Python 3.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	rec := &recorder{spans: []span{
		{Name: "pass", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 50 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 70 * ms}, // overlaps a
		{Name: "c", Parent: 1, Start: 20 * ms, End: 30 * ms},
	}}
	spans := rec.finish()
	for i, want := range []time.Duration{40 * ms, 30 * ms, 40 * ms, 10 * ms} {
		if spans[i].Self != want {
			t.Errorf("%s self = %v, want %v", spans[i].Name, spans[i].Self, want)
		}
	}
}
