package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"fifer/internal/queue"
	"fifer/internal/stage"
)

// mulStage pops one token and pushes it twice — token multiplication, so a
// ring of mulStages inevitably fills its queues and deadlocks on credits.
func mulStage(name string, in stage.InPort, out stage.OutPort) *stage.Stage {
	return &stage.Stage{
		Kernel: stage.KernelFunc{KernelName: name, Fn: func(c *stage.Ctx) stage.Status {
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			if c.Out[0].Space() < 2 {
				return stage.NoOutput
			}
			c.In[0].Pop()
			c.Out[0].Push(t)
			c.Out[0].Push(t)
			return stage.Fired
		}},
		Mapping: passDFG(name),
		In:      []stage.InPort{in},
		Out:     []stage.OutPort{out},
	}
}

// TestWatchdogReportsCreditCycleDeadlock constructs the classic credited
// ring deadlock — two PEs multiplying tokens at each other until both
// queues are full and neither producer holds credits — and checks the
// watchdog reports it via ErrDeadlock within one window of the last
// progress, with a DeadlockReport that names the blocked queues.
func TestWatchdogReportsCreditCycleDeadlock(t *testing.T) {
	cfg := testConfig(2)
	cfg.WatchdogCycles = 2000
	sys := NewSystem(cfg)

	// ring0 lives on pe0 with two producers (port 0 seeds, port 1 is the
	// pe1 stage); ring1 lives on pe1 fed by the pe0 stage.
	ring0 := sys.InterPEQueue(0, "ring0", 16, 2)
	ring1 := sys.InterPEQueue(1, "ring1", 16, 1)
	sys.PE(0).AddStage(mulStage("mul0", stage.ArbiterPort{A: ring0}, stage.CreditOut{P: ring1.Port(0)}))
	sys.PE(1).AddStage(mulStage("mul1", stage.ArbiterPort{A: ring1}, stage.CreditOut{P: ring0.Port(1)}))
	if !ring0.Port(0).Send(queue.Data(1)) {
		t.Fatal("seed send failed")
	}

	_, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	if err == nil {
		t.Fatal("credited ring deadlock ran to completion")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want errors.Is(err, ErrDeadlock)", err)
	}
	if errors.Is(err, ErrMaxCycles) {
		t.Fatal("deadlock misreported as MaxCycles exhaustion")
	}
	if sys.Cycle >= cfg.MaxCycles/2 {
		t.Fatalf("watchdog tripped at cycle %d: not fast relative to MaxCycles=%d", sys.Cycle, cfg.MaxCycles)
	}

	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err chain %v carries no *DeadlockError", err)
	}
	r := de.Report
	if r.Cycle-r.LastProgress > r.Window {
		t.Fatalf("reported %d cycles after last progress, want within window %d", r.Cycle-r.LastProgress, r.Window)
	}
	var named bool
	for _, e := range r.WaitFor {
		if strings.Contains(e.WaitsOn, "ring0") || strings.Contains(e.WaitsOn, "ring1") {
			named = true
		}
	}
	if !named {
		t.Fatalf("wait-for summary %v does not name a blocked ring queue", r.WaitFor)
	}
	if !strings.Contains(err.Error(), "wait-for") || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("error message lacks the report: %v", err)
	}
}

// TestMaxCyclesMessageCarriesBlockedSummary disables the watchdog and
// checks that even the budget-exhaustion path explains what was stuck.
func TestMaxCyclesMessageCarriesBlockedSummary(t *testing.T) {
	cfg := testConfig(1)
	cfg.WatchdogCycles = 0
	cfg.MaxCycles = 1500
	sys := NewSystem(cfg)
	pe := sys.PE(0)
	q := pe.AllocQueue("qstuck", 4)
	q.Enq(queue.Data(1))
	pe.AddStage(&stage.Stage{
		Kernel: stage.KernelFunc{KernelName: "stuck", Fn: func(*stage.Ctx) stage.Status {
			return stage.NoOutput
		}},
		Mapping:   passDFG("stuck"),
		In:        []stage.InPort{stage.LocalPort{Q: q}},
		StateWork: func() int { return 1 },
	})
	_, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles (watchdog disabled)", err)
	}
	msg := err.Error()
	for _, want := range []string{"wait-for", "stuck", "qstuck"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("ErrMaxCycles message lacks %q:\n%s", want, msg)
		}
	}
}

// TestRunRecoversQueueCorruption counterfeits a credit mid-run so the next
// credited enqueue overruns a full queue: the queue layer's typed panic
// must come back as a per-run ErrInvariant instead of crashing the process.
func TestRunRecoversQueueCorruption(t *testing.T) {
	cfg := testConfig(1)
	cfg.AuditCycles = 0 // let the panic path, not the audit, catch it
	sys := NewSystem(cfg)
	pe := sys.PE(0)
	src := pe.AllocQueue("src", 16)
	for i := 0; i < 10; i++ {
		src.Enq(queue.Data(uint64(i)))
	}
	arb := sys.InterPEQueue(0, "cq", 4, 1)
	pe.AddStage(passStage("send", stage.LocalPort{Q: src}, stage.CreditOut{P: arb.Port(0)}))
	sys.OnCycle(func(s *System, now uint64) {
		if now == 100 {
			arb.Port(0).FaultAdjustCredits(+1)
		}
	})
	_, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("err = %v, want errors.Is(err, ErrInvariant)", err)
	}
	if !strings.Contains(err.Error(), "enqueue failed") || !strings.Contains(err.Error(), "cq") {
		t.Fatalf("recovered corruption does not name the culprit: %v", err)
	}
}

// TestAuditCatchesGrownCreditRing breaks an arbiter's credit conservation
// far enough that its sender ring must grow past the queue capacity: two
// grants dropped, two counterfeit credits spent. The live audit must still
// report credit-conservation, both while the extra credits are outstanding
// and once the consumer has drained the queue and only the unpaid dropped
// grants remain.
func TestAuditCatchesGrownCreditRing(t *testing.T) {
	sys := NewSystem(testConfig(2))
	arb := sys.InterPEQueue(1, "xq", 4, 1)
	p := arb.Port(0)
	for p.CanSend() {
		p.Send(queue.Data(0))
	}
	arb.FaultDropToken()
	arb.FaultDropToken()
	p.FaultAdjustCredits(+2)
	p.Send(queue.Data(0))
	p.Send(queue.Data(0))
	if got := arb.CreditedBuffered(); got <= arb.Queue().Cap() {
		t.Fatalf("credited senders %d, want past capacity %d", got, arb.Queue().Cap())
	}
	check := func(want string) {
		t.Helper()
		err := sys.AuditLive()
		if !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), "credit-conservation") ||
			!strings.Contains(err.Error(), want) {
			t.Fatalf("audit = %v, want a credit-conservation error about %q", err, want)
		}
	}
	check("credits outstanding")
	for arb.Queue().Len() > 0 {
		arb.Deq()
	}
	p.FaultAdjustCredits(-2) // withdraw the counterfeit credits
	check("dropped grant")
}

// TestAuditLiveCleanOnHealthySystem runs a healthy pipeline and audits
// every cycle: the audit must never fire, and the run's outcome must be
// identical with auditing on or off (the layer observes, never perturbs).
func TestAuditLiveCleanOnHealthySystem(t *testing.T) {
	run := func(audit uint64) (Result, uint64) {
		cfg := testConfig(1)
		cfg.AuditCycles = audit
		sys := NewSystem(cfg)
		pe := sys.PE(0)
		q1 := pe.AllocQueue("q1", 32)
		q2 := pe.AllocQueue("q2", 32)
		got := 0
		pe.AddStage(passStage("fwd", stage.LocalPort{Q: q1}, stage.LocalPort{Q: q2}))
		pe.AddStage(sinkStage("sink", stage.LocalPort{Q: q2}, &got))
		for i := 0; i < 30; i++ {
			q1.Enq(queue.Data(uint64(i)))
		}
		res, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
		if err != nil {
			t.Fatalf("audit=%d: %v", audit, err)
		}
		return res, sys.Cycle
	}
	resOff, cycOff := run(0)
	resOn, cycOn := run(1)
	if cycOff != cycOn || !reflect.DeepEqual(resOff, resOn) {
		t.Fatalf("per-cycle audit perturbed the run: %d vs %d cycles", cycOff, cycOn)
	}
}

// TestNewSystemCheckedValidation covers the up-front config validation.
func TestNewSystemCheckedValidation(t *testing.T) {
	bad := map[string]func(*Config){
		"no PEs":           func(c *Config) { c.PEs = 0 },
		"no cycle budget":  func(c *Config) { c.MaxCycles = 0 },
		"no queue memory":  func(c *Config) { c.QueueMemBytes = 0 },
		"negative DRMs":    func(c *Config) { c.DRMsPerPE = -1 },
		"no DRM capacity":  func(c *Config) { c.DRMOutstanding = 0 },
		"no backing":       func(c *Config) { c.BackingBytes = 0 },
		"clients mismatch": func(c *Config) { c.Hier.Clients = c.PEs + 3 },
		"negative backing": func(c *Config) { c.BackingBytes = -5 },
	}
	for name, mutate := range bad {
		cfg := testConfig(2)
		mutate(&cfg)
		if _, err := NewSystemChecked(cfg); err == nil {
			t.Errorf("%s: NewSystemChecked accepted an invalid config", name)
		}
	}

	cfg := testConfig(2)
	cfg.Hier.Clients = 0 // sized automatically, not an error
	sys, err := NewSystemChecked(cfg)
	if err != nil {
		t.Fatalf("zero Clients rejected: %v", err)
	}
	if got := len(sys.Hier.L1s); got != 2 {
		t.Fatalf("zero Clients sized to %d L1s, want 2", got)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewSystem did not panic on an invalid config")
			}
		}()
		NewSystem(Config{})
	}()
}
