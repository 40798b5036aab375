package ooo

import (
	"testing"

	"fifer/internal/mem"
)

// stream drives n independent loads with stride through a core.
func stream(c *Core, base mem.Addr, n int, stride int) {
	for i := 0; i < n; i++ {
		c.Load(base+mem.Addr(i*stride), 0)
		c.Op(2)
	}
}

func TestMulticoreScalesOnIndependentWork(t *testing.T) {
	work := 1 << 16
	m1 := NewMachine(1, 64<<20)
	base1 := m1.Backing.Alloc(work * 64)
	stream(m1.Cores[0], base1, work, 64)
	serial := m1.Cycles()

	m4 := NewMachine(4, 64<<20)
	for i, c := range m4.Cores {
		base := m4.Backing.Alloc(work / 4 * 64)
		_ = i
		stream(c, base, work/4, 64)
	}
	par := m4.Cycles()
	if par*2 >= serial {
		t.Fatalf("4-core %d cycles not at least 2x faster than 1-core %d", par, serial)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	m := NewMachine(1, 64<<20)
	c := m.Cores[0]
	base := m.Backing.Alloc(1 << 20)
	// Independent misses overlap.
	for i := 0; i < 256; i++ {
		c.Load(base+mem.Addr(i*4096), 0)
	}
	indep := m.Cycles()

	m2 := NewMachine(1, 64<<20)
	c2 := m2.Cores[0]
	base2 := m2.Backing.Alloc(1 << 20)
	dep := Dep(0)
	for i := 0; i < 256; i++ {
		dep = c2.Load(base2+mem.Addr(i*4096), dep)
	}
	chained := m2.Cycles()
	if chained < indep*2 {
		t.Fatalf("dependent chain (%d cycles) should be much slower than independent loads (%d)", chained, indep)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// A tiny ROB should hurt independent-miss throughput.
	big := DefaultConfig()
	small := DefaultConfig()
	small.ROB = 16
	run := func(cfg Config) uint64 {
		h := mem.NewHierarchy(mem.DefaultCoreHierarchy(1))
		b := mem.NewBacking(64 << 20)
		c := NewCore(cfg, h.Port(0, b))
		base := b.Alloc(16 << 20)
		for i := 0; i < 4096; i++ {
			c.Load(base+mem.Addr(i*4096), 0)
			c.Op(4)
		}
		return c.Cycle()
	}
	if run(small) <= run(big) {
		t.Fatal("smaller ROB should not be faster")
	}
}

func TestBranchMispredictsCost(t *testing.T) {
	run := func(pattern func(i int) bool) uint64 {
		m := NewMachine(1, 1<<20)
		c := m.Cores[0]
		for i := 0; i < 4096; i++ {
			c.Op(1)
			c.Branch(1, pattern(i), Dep(c.Cycle()+20))
		}
		return m.Cycles()
	}
	predictable := run(func(int) bool { return true })
	random := run(func(i int) bool { return i*2654435761%97 < 48 })
	if random <= predictable {
		t.Fatal("unpredictable branches should cost more than predictable ones")
	}
}

func TestBarrierAndSummarize(t *testing.T) {
	m := NewMachine(2, 1<<20)
	m.Cores[0].Op(600)
	m.Cores[1].Op(60)
	c0 := m.Cores[0].Cycle()
	if got := m.Barrier(); got != c0 {
		t.Fatalf("barrier = %d, want max %d", got, c0)
	}
	if m.Cores[1].Cycle() != c0 {
		t.Fatal("lagging core not advanced")
	}
	s := m.Summarize()
	if s.Instrs != 660 || s.Cycles != c0 {
		t.Fatalf("summary wrong: %+v", s)
	}
}

func TestStoreValueFunctional(t *testing.T) {
	m := NewMachine(1, 1<<20)
	a := m.Backing.AllocWords(1)
	m.Cores[0].StoreValue(a, 99)
	if m.Backing.Load(a) != 99 {
		t.Fatal("store value not applied")
	}
}

// TestLLCDivMachine shrinks the 2 MB single-core LLC evenly and unevenly:
// 2 MB / 3 is not a whole number of 16-way sets, so it rounds down to 682
// sets instead of panicking in mem.NewLevel.
func TestLLCDivMachine(t *testing.T) {
	for _, tc := range []struct{ div, want int }{
		{4, (2 << 20) / 4},
		{3, 682 * 16 * 64},
	} {
		m := NewMachineLLCDiv(1, 1<<20, tc.div)
		if got := m.Hier.Config.LLCBytes; got != tc.want {
			t.Fatalf("LLC / %d = %d B, want %d", tc.div, got, tc.want)
		}
	}
}
