package mem

import (
	"testing"
	"testing/quick"
)

func TestBackingLoadStore(t *testing.T) {
	b := NewBacking(1 << 20)
	a := b.AllocWords(16)
	b.Store(a, 42)
	b.Store(a+8, 43)
	if b.Load(a) != 42 || b.Load(a+8) != 43 {
		t.Fatal("load/store mismatch")
	}
}

func TestBackingAllocAlignment(t *testing.T) {
	b := NewBacking(1 << 20)
	a1 := b.Alloc(10)
	a2 := b.Alloc(1)
	if a1%LineBytes != 0 || a2%LineBytes != 0 {
		t.Fatal("allocations not line-aligned")
	}
	if a1.Line() == a2.Line() {
		t.Fatal("distinct allocations share a line")
	}
}

func TestBackingAllocSlice(t *testing.T) {
	b := NewBacking(1 << 20)
	vals := []uint64{5, 6, 7}
	a := b.AllocSlice(vals)
	for i, v := range vals {
		if b.Load(a+Addr(i*WordBytes)) != v {
			t.Fatalf("slice word %d wrong", i)
		}
	}
}

func TestBackingPanics(t *testing.T) {
	b := NewBacking(1 << 12)
	for _, f := range []func(){
		func() { b.Load(3) },                    // unaligned
		func() { b.Load(1 << 20) },              // out of range
		func() { b.Alloc(1 << 21); b.Alloc(1) }, // out of simulated memory
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCacheHitMiss(t *testing.T) {
	hbm := NewHBM(120, 128)
	llc := NewLevel("llc", 1<<20, 16, 40, hbm)
	l1 := NewLevel("l1", 1<<15, 8, 4, llc)

	// Cold miss goes to memory.
	ready := l1.Access(0, 0x1000, false)
	if ready < 120 {
		t.Fatalf("cold miss ready=%d, want >= mem latency", ready)
	}
	// Hit is L1 latency.
	if got := l1.Access(200, 0x1008, false); got != 204 {
		t.Fatalf("hit ready=%d, want 204", got)
	}
	if l1.Accesses != 2 || l1.Misses != 1 {
		t.Fatalf("stats: %d accesses %d misses", l1.Accesses, l1.Misses)
	}
	if !l1.Contains(0x1000) || !llc.Contains(0x1000) {
		t.Fatal("fill did not populate levels")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	hbm := NewHBM(100, 128)
	// Direct-ish tiny cache: 2 ways, 2 sets (4 lines of 64B = 256B).
	l1 := NewLevel("l1", 256, 2, 1, hbm)
	// Three lines mapping to the same set (stride = sets*LineBytes = 128).
	l1.Access(0, 0, false)
	l1.Access(10, 128, false)
	l1.Access(20, 0, false)   // touch 0: now MRU
	l1.Access(30, 256, false) // evicts 128 (LRU)
	if !l1.Contains(0) || l1.Contains(128) || !l1.Contains(256) {
		t.Fatal("LRU order wrong")
	}
}

func TestCacheWriteback(t *testing.T) {
	hbm := NewHBM(100, 128)
	l1 := NewLevel("l1", 128, 2, 1, hbm) // one set, two ways
	l1.Access(0, 0, true)                // dirty
	l1.Access(10, 64, false)
	l1.Access(20, 128, false) // evicts dirty line 0
	if l1.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", l1.Writebacks)
	}
}

func TestCacheInvalidate(t *testing.T) {
	h := NewHierarchy(DefaultPEHierarchy(2))
	h.L1s[0].Access(0, 0x40, false)
	h.L1s[0].Invalidate(0x40)
	if h.L1s[0].Contains(0x40) || h.LLC.Contains(0x40) {
		t.Fatal("invalidate left line resident")
	}
}

// Property: the cache hierarchy is timing-only — a port's loads always
// return exactly what a flat memory oracle holds, under random writes.
func TestPortMatchesOracle(t *testing.T) {
	f := func(ops []uint16, vals []uint64) bool {
		h := NewHierarchy(DefaultPEHierarchy(1))
		b := NewBacking(1 << 20)
		base := b.AllocWords(256)
		p := h.Port(0, b)
		oracle := make(map[Addr]uint64)
		now := uint64(0)
		for i, op := range ops {
			a := base + Addr(int(op%256)*WordBytes)
			if i < len(vals) && vals[i]%2 == 0 {
				p.Store(now, a, vals[i])
				oracle[a] = vals[i]
			} else {
				v, _ := p.Load(now, a)
				if v != oracle[a] {
					return false
				}
			}
			now += 4
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHBMBandwidthQueueing(t *testing.T) {
	h := NewHBM(100, 128) // 2 lines per cycle
	// Five back-to-back requests in the same cycle: later ones queue.
	var readies []uint64
	for i := 0; i < 5; i++ {
		readies = append(readies, h.access(10, Addr(i*64), false))
	}
	if readies[0] != 110 {
		t.Fatalf("first ready=%d, want 110", readies[0])
	}
	if readies[4] <= readies[0] {
		t.Fatal("bandwidth queueing missing")
	}
	if h.Stalled == 0 {
		t.Fatal("stall accounting missing")
	}
}

func TestHBMEpochReset(t *testing.T) {
	h := NewHBM(100, 128)
	// Client A saturates the channel late in its timeline.
	for i := 0; i < 1000; i++ {
		h.access(uint64(1000+i), Addr(i*64), false)
	}
	// Client B, simulated afterwards, starts at time 0: it must not queue
	// behind client A's epoch.
	if ready := h.access(0, 0x100000, false); ready > 200 {
		t.Fatalf("cross-epoch request queued: ready=%d", ready)
	}
}

func TestHierarchyConfigs(t *testing.T) {
	pe := DefaultPEHierarchy(16)
	if pe.LLCBytes != 16*(512<<10) || pe.L2Bytes != 0 {
		t.Fatal("PE hierarchy wrong")
	}
	core := DefaultCoreHierarchy(4)
	if core.L2Bytes == 0 || core.LLCBytes != 4*(2<<20) {
		t.Fatal("core hierarchy wrong")
	}
	h := NewHierarchy(core)
	if len(h.L1s) != 4 || len(h.L2s) != 4 {
		t.Fatal("client caches missing")
	}
}

func TestShrinkLLC(t *testing.T) {
	const set = 16 * LineBytes
	for _, tc := range []struct{ bytes, div, want int }{
		{16 << 20, 16, 1 << 20}, // even divisors are exact
		{16 << 20, 1, 16 << 20},
		{16 << 20, 0, 16 << 20},     // below 1 counts as 1
		{2 << 20, 3, 682 * set},     // rounds down to whole sets
		{2 << 20, 1 << 20, 1 * set}, // never below one set
	} {
		c := HierarchyConfig{LLCBytes: tc.bytes, LLCWays: 16}
		c.ShrinkLLC(tc.div)
		if c.LLCBytes != tc.want {
			t.Errorf("ShrinkLLC(%d B / %d) = %d B, want %d", tc.bytes, tc.div, c.LLCBytes, tc.want)
		}
		NewLevel("llc", c.LLCBytes, c.LLCWays, 40, NewHBM(120, 128)) // must not panic
	}
}
