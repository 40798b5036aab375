package ooo

import (
	"math/rand"
	"testing"

	"fifer/internal/mem"
)

// oracleCore is the Core that division-free ring indexing replaced: every
// ROB, MSHR and predictor index wraps with %, and each dispatch re-reads the
// youngest ROB entry to clamp its completion to it. It is kept as the
// reference the production Core, which has no clamp, must match
// instruction for instruction.
type oracleCore struct {
	cfg  Config
	port *mem.Port

	cycle uint64
	slot  int

	rob   []uint64
	robHd int
	robSz int

	mshr   []uint64
	mshrHd int
	mshrSz int

	pred []uint8

	Instrs, Loads, Branches, Mispredicts, L1MissLoads uint64
}

func newOracleCore(cfg Config, port *mem.Port) *oracleCore {
	return &oracleCore{
		cfg:  cfg,
		port: port,
		rob:  make([]uint64, cfg.ROB),
		mshr: make([]uint64, cfg.MSHRs),
		pred: make([]uint8, cfg.PredictorEntries),
	}
}

func (c *oracleCore) dispatch(complete uint64) {
	c.Instrs++
	c.slot++
	if c.slot >= c.cfg.IssueWidth {
		c.slot = 0
		c.cycle++
	}
	if c.robSz == c.cfg.ROB {
		oldest := c.rob[c.robHd]
		c.robHd = (c.robHd + 1) % c.cfg.ROB
		c.robSz--
		if oldest > c.cycle {
			c.cycle = oldest
			c.slot = 0
		}
	}
	if c.robSz > 0 {
		prev := c.rob[(c.robHd+c.robSz-1)%c.cfg.ROB]
		if complete < prev {
			complete = prev
		}
	}
	c.rob[(c.robHd+c.robSz)%c.cfg.ROB] = complete
	c.robSz++
}

func (c *oracleCore) Op(n int) {
	for i := 0; i < n; i++ {
		c.dispatch(c.cycle + 1)
	}
}

func (c *oracleCore) Load(addr mem.Addr, dep Dep) Dep {
	c.Loads++
	issue := c.cycle
	if uint64(dep) > issue {
		issue = uint64(dep)
	}
	l1lat := c.port.L1().Latency()
	_, ready := c.port.Load(issue, addr)
	if ready > issue+l1lat {
		c.L1MissLoads++
		if c.mshrSz == c.cfg.MSHRs {
			oldest := c.mshr[c.mshrHd]
			c.mshrHd = (c.mshrHd + 1) % c.cfg.MSHRs
			c.mshrSz--
			if oldest > issue {
				ready += oldest - issue
			}
		}
		c.mshr[(c.mshrHd+c.mshrSz)%c.cfg.MSHRs] = ready
		c.mshrSz++
	}
	c.dispatch(ready)
	return Dep(ready)
}

func (c *oracleCore) Branch(site uint64, taken bool, dep Dep) {
	c.Branches++
	resolve := c.cycle + 1
	if uint64(dep) > resolve {
		resolve = uint64(dep)
	}
	c.dispatch(resolve)
	idx := site % uint64(len(c.pred))
	ctr := c.pred[idx]
	if (ctr >= 2) != taken {
		c.Mispredicts++
		if redirect := resolve + c.cfg.MispredictFlush; redirect > c.cycle {
			c.cycle = redirect
			c.slot = 0
		}
	}
	if taken && ctr < 3 {
		c.pred[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		c.pred[idx] = ctr - 1
	}
}

// TestCoreMatchesOracle drives a Core and the modulo oracle, each on its own
// identical memory hierarchy, with one random stream of ALU ops, loads
// (independent and dependent, hitting and missing) and branches, and
// requires equal cycles, returned Deps and counters after every call. ROB
// sizes 1, 7 and 224 cover the degenerate, odd and Table 2 rings; the
// predictor sizes cover the masked (power-of-two) and modulo indexes.
func TestCoreMatchesOracle(t *testing.T) {
	for _, rob := range []int{1, 7, 224} {
		for _, sz := range []struct{ mshrs, pred int }{{10, 4096}, {3, 1000}, {1, 1}} {
			cfg := DefaultConfig()
			cfg.ROB, cfg.MSHRs, cfg.PredictorEntries = rob, sz.mshrs, sz.pred
			newHier := func() (*mem.Port, mem.Addr) {
				h := mem.NewHierarchy(mem.DefaultCoreHierarchy(1))
				b := mem.NewBacking(8 << 20)
				return h.Port(0, b), b.Alloc(4 << 20)
			}
			port, base := newHier()
			oport, obase := newHier()
			c, o := NewCore(cfg, port), newOracleCore(cfg, oport)
			rng := rand.New(rand.NewSource(int64(rob*1000 + sz.pred)))
			var dep, odep Dep
			for step := 0; step < 20000; step++ {
				switch k := rng.Intn(8); {
				case k < 3:
					n := 1 + rng.Intn(8)
					c.Op(n)
					o.Op(n)
				case k < 6:
					off := mem.Addr(rng.Intn(4<<20/mem.WordBytes) * mem.WordBytes)
					if rng.Intn(4) == 0 {
						off %= 16 << 10 // a hot region that hits in L1
					}
					d, od := Dep(0), Dep(0)
					if rng.Intn(2) == 0 {
						d, od = dep, odep
					}
					dep, odep = c.Load(base+off, d), o.Load(obase+off, od)
					if dep != odep {
						t.Fatalf("rob %d %+v step %d: load ready %d, oracle %d", rob, sz, step, dep, odep)
					}
				default:
					site, taken := uint64(rng.Intn(5000)), rng.Intn(3) > 0
					c.Branch(site, taken, dep)
					o.Branch(site, taken, odep)
				}
				if c.Cycle() != o.cycle || c.Instrs != o.Instrs || c.Loads != o.Loads ||
					c.Branches != o.Branches || c.Mispredicts != o.Mispredicts || c.L1MissLoads != o.L1MissLoads {
					t.Fatalf("rob %d %+v step %d: cycle %d instrs %d loads %d branches %d mispredicts %d misses %d; oracle %d %d %d %d %d %d",
						rob, sz, step, c.Cycle(), c.Instrs, c.Loads, c.Branches, c.Mispredicts, c.L1MissLoads,
						o.cycle, o.Instrs, o.Loads, o.Branches, o.Mispredicts, o.L1MissLoads)
				}
			}
			if c.L1MissLoads == 0 || c.Mispredicts == 0 {
				t.Fatalf("rob %d %+v: stream too weak (%d misses, %d mispredicts)", rob, sz, c.L1MissLoads, c.Mispredicts)
			}
		}
	}
}

// TestNewCoreClampsZeroSizes is the regression test for a core configured
// with an empty ROB, no MSHRs, no predictor or no issue width: each used to
// panic (index out of range, modulo or division by zero) on the first
// instruction or report. A zero size must behave exactly as size 1.
func TestNewCoreClampsZeroSizes(t *testing.T) {
	run := func(cfg Config) (uint64, uint64, Result) {
		m := NewMachine(1, 8<<20)
		c := NewCore(cfg, m.Hier.Port(0, m.Backing))
		m.Cores[0] = c
		base := m.Backing.Alloc(1 << 20)
		d := Dep(0)
		for i := 0; i < 64; i++ {
			d = c.Load(base+mem.Addr(i*4096), d)
			c.Op(2)
			c.Branch(uint64(i), i%3 == 0, d)
		}
		return c.Cycle(), c.IssuedCycles(), m.Summarize()
	}
	fields := map[string]func(*Config, int){
		"ROB":              func(c *Config, n int) { c.ROB = n },
		"MSHRs":            func(c *Config, n int) { c.MSHRs = n },
		"PredictorEntries": func(c *Config, n int) { c.PredictorEntries = n },
		"IssueWidth":       func(c *Config, n int) { c.IssueWidth = n },
	}
	for name, set := range fields {
		cfg, one := DefaultConfig(), DefaultConfig()
		set(&cfg, 0)
		set(&one, 1)
		gc, gi, gr := run(cfg)
		wc, wi, wr := run(one)
		if gc != wc || gi != wi || gr != wr {
			t.Fatalf("%s = 0: cycle %d issued %d %+v, want size-1 %d %d %+v", name, gc, gi, gr, wc, wi, wr)
		}
	}
}
