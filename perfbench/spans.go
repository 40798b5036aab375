package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Layer names the module the
// interval is charged to (see README.md); Parent indexes the span that
// caused it, -1 for a root. Times are offsets from the start of the run.
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder holds a traced run's spans in memory; they are written out once
// the run ends. It is safe for concurrent use, because the fig13-graph pass
// runs jobs on several goroutines.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// A nil *recorder records nothing: begin returns -1, end does nothing and
// timed only times fn. Untraced runs share the set-up code this way.

// begin opens a span and returns its index.
func (r *recorder) begin(name, layer string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
}

// timed runs fn inside a span and returns the span's duration.
func (r *recorder) timed(name, layer string, parent int, fn func()) time.Duration {
	if r == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := r.begin(name, layer, parent)
	fn()
	r.end(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].dur()
}

// under returns the spans in the subtree rooted at root whose layer is one
// of layers. Parents are recorded before their children, so one forward
// scan finds the subtree.
func (r *recorder) under(root int, layers ...string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := make([]bool, len(r.spans))
	var out []span
	for i, s := range r.spans {
		in[i] = i == root || (s.Parent >= 0 && in[s.Parent])
		if !in[i] {
			continue
		}
		for _, l := range layers {
			if s.Layer == l {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// total sums the durations of the spans under root charged to layers.
func (r *recorder) total(root int, layers ...string) time.Duration {
	var t time.Duration
	for _, s := range r.under(root, layers...) {
		t += s.dur()
	}
	return t
}

// finish fills in every span's self time: its duration minus the part of
// it that its children cover. Children may overlap (jobs on parallel
// workers), so the covered part is the union of their intervals.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]span, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.Self = s.dur() - covered(s.Start, s.End, children[i])
	}
	return r.spans
}

// covered returns how much of [start, end) the union of kids covers.
func covered(start, end time.Duration, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// write stores the spans as JSON in dir, named after the workload and seed.
func (r *recorder) write(dir, workload string, seed uint64) error {
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.finish()}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
