package apps

import (
	"testing"
	"testing/quick"

	"fifer/internal/core"
)

func TestOwnerPartition(t *testing.T) {
	// Every element gets exactly one owner; ranges tile [0, n).
	f := func(nSeed, rSeed uint16) bool {
		n := int(nSeed%5000) + 1
		r := int(rSeed%17) + 1
		counts := make([]int, r)
		for v := 0; v < n; v++ {
			o := Owner(v, n, r)
			if o < 0 || o >= r {
				return false
			}
			lo, hi := OwnedRange(o, n, r)
			if v < lo || v >= hi {
				return false
			}
			counts[o]++
		}
		total := 0
		for s := 0; s < r; s++ {
			lo, hi := OwnedRange(s, n, r)
			if hi < lo {
				return false
			}
			if counts[s] != hi-lo {
				return false
			}
			total += hi - lo
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceFor(t *testing.T) {
	fifer := core.DefaultConfig()
	p := PlaceFor(fifer, 4)
	if p.Replicas != 16 {
		t.Fatalf("fifer replicas = %d, want 16", p.Replicas)
	}
	for r := 0; r < p.Replicas; r++ {
		for s := 0; s < 4; s++ {
			if p.PEOf(r, s) != r {
				t.Fatal("fifer placement must keep a replica on one PE")
			}
		}
	}
	static := core.StaticConfig()
	ps := PlaceFor(static, 4)
	if ps.Replicas != 4 {
		t.Fatalf("static replicas = %d, want 4", ps.Replicas)
	}
	seen := map[int]bool{}
	for r := 0; r < ps.Replicas; r++ {
		for s := 0; s < 4; s++ {
			pe := ps.PEOf(r, s)
			if seen[pe] {
				t.Fatalf("static placement reuses pe%d", pe)
			}
			seen[pe] = true
		}
	}
}

func TestQueuePlanBudgetsPerPE(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.PEs = 2
	cfg.Hier.Clients = 2
	cfg.BackingBytes = 1 << 20
	sys := core.NewSystem(cfg)
	qp := NewQueuePlan(sys)
	a := qp.Request(0, "a", 1, nil)
	bq := qp.Request(0, "b", 3, nil)
	c := qp.Request(1, "c", 1, []int{0})
	qp.Build()
	// PE 0's 16 KB (2048 tokens) split 1:3.
	if a.Queue().Cap() != 512 || bq.Queue().Cap() != 1536 {
		t.Fatalf("split = %d/%d, want 512/1536", a.Queue().Cap(), bq.Queue().Cap())
	}
	// PE 1 hosts only c: full budget, credited (cross-PE producer).
	if c.Queue().Cap() != 2048 {
		t.Fatalf("c cap = %d, want 2048", c.Queue().Cap())
	}
	if c.Out(0).Space() != 2048 {
		t.Fatal("credited producer should start with full credits")
	}
}

func TestSystemKindStrings(t *testing.T) {
	want := map[SystemKind]string{
		SerialOOO: "serial-ooo", MulticoreOOO: "4-core-ooo",
		StaticPipe: "static-16pe", FiferPipe: "fifer-16pe",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d -> %q", k, k.String())
		}
	}
}

// TestScaleLLCRoundsToWholeSets shrinks an LLC whose scaled size is not a
// whole number of sets (1000 KB / 16 = 62.5 16-way sets): the system must
// still build, with the LLC rounded down to 62 sets.
func TestScaleLLCRoundsToWholeSets(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Hier.LLCBytes = 1000 << 10
	ScaleLLC(&cfg, 0)
	if got, want := cfg.Hier.LLCBytes, 62*16*64; got != want {
		t.Fatalf("LLC = %d B, want %d", got, want)
	}
	if _, err := core.NewSystemChecked(cfg); err != nil {
		t.Fatal(err)
	}
}
