package faults_test

import (
	"errors"
	"fmt"
	"testing"

	"fifer/internal/core"
	"fifer/internal/faults"
	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
)

// The failure half of the parking contract (DESIGN.md §10): every fault
// detector must fire on the default kernel exactly as on the naive
// Config.NoFastForward oracle — same error chain, same text (wait-for
// summaries, blamed queues), same detection cycle. Armed faults register
// OnCycle hooks, under which the kernel ticks every PE and never jumps, so
// this pins that the hook rule holds and that the kernel's settling and
// cached busy flags never show a detector a stale machine. Each scenario
// below is one of the armed-fault suites from faults_test.go rebuilt on a
// 4-PE system. The test name dates from the sharded kernel this suite used
// to pin; it is kept so the cases keep their identity.
func TestShardedDetectorParity(t *testing.T) {
	scenarios := []struct {
		name  string
		build func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan)
		check func(t *testing.T, err error)
	}{
		{
			name: "stuck-stage-watchdog",
			build: func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan) {
				sys := fwdSinkSystem(t, cfg)
				plan := faults.NewPlan(1)
				plan.Add(faults.StuckStage{PE: 0, Stage: 0, At: 200})
				return sys, plan
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, core.ErrDeadlock) {
					t.Fatalf("err = %v, want ErrDeadlock", err)
				}
			},
		},
		{
			name: "withheld-credits-audit",
			build: func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan) {
				sys := core.NewSystem(cfg)
				src := sys.PE(0).AllocQueue("src", 512)
				for i := 0; i < 500; i++ {
					src.Enq(queue.Data(uint64(i)))
				}
				xq := sys.InterPEQueue(3, "xq", 8, 1)
				sys.PE(0).AddStage(passStage("send", stage.LocalPort{Q: src}, stage.CreditOut{P: xq.Port(0)}))
				sys.PE(3).AddStage(sinkStage("recv", stage.ArbiterPort{A: xq}))
				plan := faults.NewPlan(2)
				plan.Add(faults.WithheldCredits{Arbiter: 0, Port: 0, N: 2, At: 100})
				return sys, plan
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, core.ErrInvariant) {
					t.Fatalf("err = %v, want ErrInvariant", err)
				}
			},
		},
		{
			name: "dropped-grant-audit",
			build: func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan) {
				sys := core.NewSystem(cfg)
				src := sys.PE(0).AllocQueue("src", 64)
				for i := 0; i < 50; i++ {
					src.Enq(queue.Data(uint64(i)))
				}
				xq := sys.InterPEQueue(2, "xq", 4, 1)
				sys.PE(0).AddStage(passStage("send", stage.LocalPort{Q: src}, stage.CreditOut{P: xq.Port(0)}))
				plan := faults.NewPlan(3)
				plan.Add(faults.DroppedGrant{Arbiter: 0, At: 50})
				return sys, plan
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, core.ErrInvariant) {
					t.Fatalf("err = %v, want ErrInvariant", err)
				}
			},
		},
		{
			name: "delayed-reconfig-watchdog",
			build: func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan) {
				sys := fwdSinkSystem(t, cfg)
				plan := faults.NewPlan(4)
				plan.Add(faults.DelayedReconfig{PE: 0, Extra: 100_000, At: 1})
				return sys, plan
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, core.ErrDeadlock) {
					t.Fatalf("err = %v, want ErrDeadlock", err)
				}
			},
		},
		{
			name: "stalled-drm-watchdog",
			build: func(t *testing.T, cfg core.Config) (*core.System, *faults.Plan) {
				sys := core.NewSystem(cfg)
				pe := sys.PE(3)
				arr := make([]uint64, 256)
				for i := range arr {
					arr[i] = uint64(i)
				}
				base := sys.Backing.AllocSlice(arr)
				addrs := pe.AllocQueue("addrs", 512)
				vals := pe.AllocQueue("vals", 16)
				d := pe.DRM(0)
				d.Configure(core.DRMDereference, stage.LocalPort{Q: vals})
				pe.AddStage(passStage("feed", stage.LocalPort{Q: addrs}, d.InPort()))
				pe.AddStage(sinkStage("sink", stage.LocalPort{Q: vals}))
				for i := range arr {
					addrs.Enq(queue.Data(uint64(base) + uint64(i*mem.WordBytes)))
				}
				plan := faults.NewPlan(5)
				plan.Add(faults.StalledDRM{PE: 3, DRM: 0, Extra: 10_000_000, At: 100})
				return sys, plan
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, core.ErrDeadlock) {
					t.Fatalf("err = %v, want ErrDeadlock", err)
				}
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(oracle bool) (uint64, error) {
				cfg := testConfig(4)
				cfg.NoFastForward = oracle
				sys, plan := sc.build(t, cfg)
				if err := plan.Arm(sys); err != nil {
					t.Fatal(err)
				}
				err := runToFailure(t, sys)
				return sys.Cycle, err
			}
			oracleCycle, oracleErr := run(true)
			cycle, err := run(false)
			sc.check(t, oracleErr)
			sc.check(t, err)
			if err.Error() != oracleErr.Error() {
				t.Errorf("error text differs\ndefault: %v\noracle:  %v", err, oracleErr)
			}
			if cycle != oracleCycle {
				t.Errorf("detected at cycle %d by default, %d by the oracle", cycle, oracleCycle)
			}
			// Structured payloads must match too, not just the formatted
			// text.
			var oracleDL, dl *core.DeadlockError
			if errors.As(oracleErr, &oracleDL) != errors.As(err, &dl) {
				t.Fatalf("only one kernel produced a DeadlockError: oracle=%v default=%v", oracleErr, err)
			}
			if oracleDL != nil {
				if got, want := fmt.Sprintf("%+v", dl.Report), fmt.Sprintf("%+v", oracleDL.Report); got != want {
					t.Errorf("deadlock reports differ\ndefault: %s\noracle:  %s", got, want)
				}
			}
		})
	}
}
