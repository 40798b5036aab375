package queue

import (
	"math/rand"
	"testing"
)

// TestCreditReturnFIFOAcrossWrap interleaves sends from random ports with
// consumer dequeues long enough for the sender ring to wrap many times, and
// checks every credit goes back to the port that sent the dequeued token,
// oldest first, without the ring ever growing.
func TestCreditReturnFIFOAcrossWrap(t *testing.T) {
	for _, capTokens := range []int{1, 2, 5} {
		dst := NewQueue("d", capTokens)
		arb := NewArbiter(dst, 3)
		var returned []int
		arb.SetCreditHook(func(port int, granted bool) {
			if !granted {
				returned = append(returned, port)
			}
		})
		var want []int // model: sender of each buffered token, oldest first
		rng := rand.New(rand.NewSource(int64(capTokens)))
		for step := 0; step < 5000; step++ {
			if rng.Intn(2) == 0 {
				port := rng.Intn(arb.Ports())
				if arb.Port(port).Send(Data(uint64(port))) {
					want = append(want, port)
				}
			} else if tok, ok := arb.Deq(); ok {
				if got := returned[len(returned)-1]; got != want[0] || tok.Value != uint64(got) {
					t.Fatalf("cap %d step %d: credit returned to port %d for a token of port %d, want port %d",
						capTokens, step, got, tok.Value, want[0])
				}
				want = want[1:]
			}
			if arb.CreditedBuffered() != len(want) || arb.TotalCredits() != capTokens {
				t.Fatalf("cap %d step %d: %d credited, %d total credits; want %d, %d",
					capTokens, step, arb.CreditedBuffered(), arb.TotalCredits(), len(want), capTokens)
			}
		}
		if len(returned) < 4*capTokens {
			t.Fatalf("cap %d: only %d credits returned, the ring never wrapped", capTokens, len(returned))
		}
		if len(arb.senders) != capTokens {
			t.Fatalf("cap %d: sender ring grew to %d under conserved credits", capTokens, len(arb.senders))
		}
	}
}

// TestCreditRingGrowsPastCap breaks credit conservation the way fault
// injection does, dropping buffered grants and then counterfeiting credits,
// so more credited tokens are outstanding than the queue holds slots. The
// sender ring must grow rather than panic, keep its FIFO order across the
// growth, and leave both conservation breaches visible to the audit.
func TestCreditRingGrowsPastCap(t *testing.T) {
	const capTokens = 4
	dst := NewQueue("d", capTokens)
	arb := NewArbiter(dst, 2)
	// Fill from both ports, then wrap the ring's head off index 0.
	for i := 0; i < capTokens; i++ {
		arb.Port(i % 2).Send(Data(0))
	}
	arb.Deq()
	arb.Port(0).Send(Data(0))
	order := []int{1, 0, 1, 0} // senders of the buffered tokens, oldest first
	if !arb.FaultDropToken() || !arb.FaultDropToken() {
		t.Fatal("drop failed")
	}
	arb.Port(1).FaultAdjustCredits(+2)
	for i := 0; i < 2; i++ {
		if !arb.Port(1).Send(Data(0)) {
			t.Fatal("counterfeit credit refused")
		}
		order = append(order, 1)
	}
	if got := arb.CreditedBuffered(); got != capTokens+2 {
		t.Fatalf("credited senders %d, want %d", got, capTokens+2)
	}
	if got := arb.TotalCredits(); got == dst.Cap() {
		t.Fatalf("TotalCredits %d hides the counterfeit credits", got)
	}
	var returned []int
	arb.SetCreditHook(func(port int, granted bool) {
		if !granted {
			returned = append(returned, port)
		}
	})
	for dst.Len() > 0 {
		arb.Deq()
	}
	for i, p := range returned {
		if p != order[i] {
			t.Fatalf("credit %d returned to port %d, want %d (order %v)", i, p, order[i], order)
		}
	}
	if len(returned) != capTokens {
		t.Fatalf("%d credits returned for %d dequeues", len(returned), capTokens)
	}
	// The two dropped grants are never repaid: the audit's dropped-grant
	// condition (more credited senders than buffered tokens) holds.
	if credited := arb.CreditedBuffered(); credited != 2 || credited <= dst.Len() {
		t.Fatalf("credited senders %d with %d buffered, want 2 > 0", credited, dst.Len())
	}
}

// TestArbiterSendDeqAllocFree pins the steady-state credited round trip
// at zero allocations, with the queue held half full.
func TestArbiterSendDeqAllocFree(t *testing.T) {
	dst := NewQueue("d", 64)
	arb := NewArbiter(dst, 1)
	p := arb.Port(0)
	for i := 0; i < 32; i++ {
		p.Send(Data(uint64(i)))
	}
	if n := testing.AllocsPerRun(1000, func() {
		p.Send(Data(1))
		arb.Deq()
	}); n != 0 {
		t.Fatalf("Send+Deq allocates %.1f times per round trip", n)
	}
}
