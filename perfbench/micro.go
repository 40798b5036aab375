package main

import (
	"fmt"
	"time"

	"fifer/internal/cgra"
	"fifer/internal/core"
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

// Each micro-loop runs a fixed number of calls through one layer's public
// functions, microReps times; the reported figure is the median per call.
// The counts keep one repetition near 10-50 ms on a 2-vCPU host.
const (
	microReps     = 5
	drmTicks      = 1 << 18
	cacheAccesses = 1 << 21
	queueOps      = 1 << 21
	placeCalls    = 1 << 18
)

// sink keeps the compiler from discarding the loops' results.
var sink uint64

type micro struct {
	metric, fn string
	calls      int
	perCall    time.Duration // unit of the metric: ns or us
	loop       func() error
}

var micros = []micro{
	{"core.drm_tick_ns", "DRM.Tick", drmTicks, time.Nanosecond, drmLoop},
	{"mem.access_hit_ns", "Level.Access hit", cacheAccesses, time.Nanosecond, cacheHitLoop},
	{"mem.access_miss_ns", "Level.Access miss", cacheAccesses, time.Nanosecond, cacheMissLoop},
	{"queue.enqdeq_ns", "Queue.Enq+Deq", queueOps, time.Nanosecond, queueLoop},
	{"cgra.place_us", "Place", placeCalls, time.Microsecond, placeLoop},
}

// runMicros times every micro-loop under parent and returns each metric.
func runMicros(rec *recorder, parent int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, m := range micros {
		var per []float64
		for range microReps {
			var err error
			d := rec.timed(m.fn, m.metric, parent, func() { err = m.loop() })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.metric, err)
			}
			per = append(per, float64(d)/float64(m.perCall)/float64(m.calls))
		}
		out[m.metric] = median(per)
	}
	return out, nil
}

// drmLoop ticks a dereferencing DRM, configured as the PEs configure theirs
// (core.DefaultConfig's outstanding and issue-width limits), over addresses
// that stay resident in its L1, keeping its input fed and its output
// drained.
func drmLoop() error {
	cfg := core.DefaultConfig()
	h := mem.NewHierarchy(mem.DefaultPEHierarchy(1))
	back := mem.NewBacking(1 << 20)
	base := back.AllocWords(1024)
	in := queue.NewQueue("drm-in", 64)
	out := queue.NewQueue("drm-out", 64)
	d := core.NewDRM("bench", in, h.Port(0, back), cfg.DRMOutstanding, cfg.DRMIssueWidth)
	d.Configure(core.DRMDereference, stage.LocalPort{Q: out})
	for now := uint64(0); now < drmTicks; now++ {
		for in.Space() > 0 {
			in.Enq(queue.Data(uint64(base) + (now%1024)*mem.WordBytes))
		}
		d.Tick(now)
		for {
			t, ok := out.Deq()
			if !ok {
				break
			}
			sink += t.Value
		}
	}
	if d.Emitted == 0 {
		return fmt.Errorf("DRM emitted nothing in %d ticks", drmTicks)
	}
	return nil
}

func cacheHitLoop() error {
	h := mem.NewHierarchy(mem.DefaultPEHierarchy(1))
	l1 := h.Port(0, mem.NewBacking(1<<12)).L1()
	const a = mem.Addr(64)
	l1.Access(0, a, false)
	for i := uint64(0); i < cacheAccesses; i++ {
		sink += l1.Access(i, a, false)
	}
	if l1.HitRate() < 0.99 {
		return fmt.Errorf("hit rate %.3f on a resident line", l1.HitRate())
	}
	return nil
}

// cacheMissLoop streams through 128 MiB, a new line per access, so every
// access misses the L1 and the LLC.
func cacheMissLoop() error {
	h := mem.NewHierarchy(mem.DefaultPEHierarchy(1))
	l1 := h.Port(0, mem.NewBacking(1<<12)).L1()
	for i := uint64(0); i < cacheAccesses; i++ {
		a := mem.Addr(i%(1<<21)) * mem.LineBytes
		sink += l1.Access(i*4, a, false)
	}
	if l1.HitRate() > 0.01 {
		return fmt.Errorf("hit rate %.3f on a streaming miss", l1.HitRate())
	}
	return nil
}

func queueLoop() error {
	q := queue.NewQueue("bench", 1024)
	for i := uint64(0); i < queueOps; i++ {
		q.Enq(queue.Data(i))
		t, ok := q.Deq()
		if !ok || t.Value != i {
			return fmt.Errorf("dequeued %v, %v after enqueuing %d", t, ok, i)
		}
	}
	return nil
}

// placeLoop places a one-load address-generation stage, the shape of the
// graph pipelines' fetch stages.
func placeLoop() error {
	g := cgra.NewDFG("bench")
	addr := g.Add(cgra.OpLEA, 3, g.Const(0), g.Deq(0))
	g.Enq(0, addr)
	fabric := cgra.DefaultFabric()
	for range placeCalls {
		m, err := cgra.Place(g, fabric, true)
		if err != nil {
			return err
		}
		sink += uint64(m.ConfigBytes)
	}
	return nil
}
