package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/stage"
	"fifer/internal/trace"
)

// The core half of the parking contract (DESIGN.md §10): seeded random
// synthetic pipelines whose credited queues carry tokens between PEs in both
// directions — forward sends (consumer ticks later the same cycle), backward
// sends (consumer already ticked), backward credit returns, DRM-latency
// windows, coupled-load stalls, and an exotic throttled port that makes its
// PE poll — run on the parking kernel and must agree with the naive
// Config.NoFastForward oracle on every surface. Holding the equality with
// fast-forward enabled is also the property that parked PEs' wakes never
// let a jump skip past an exchange: any exchange inside a jump window would
// tick the two loops apart and fail DeepEqual. The "Shard" in the test names
// dates from the retired sharded kernel this suite used to pin; every test
// here compares per-PE parking against the oracle, and the names are kept
// so the recorded test IDs stay stable.

// randPipeline is one random synthetic machine: a credited forwarding chain
// across all PEs with a reflection edge sending a fraction of the traffic
// backward, so tokens repeatedly cross between PEs in both directions.
type randPipeline struct {
	inbox0   *queue.Queue
	sunk     int
	rounds   int
	maxRound int
	// quiesced holds every PE's CPI stack at each Quiesced call: program
	// code may read any machine state there, so parked PEs must have been
	// settled first.
	quiesced []CPIStack
	batch    int
	refl     []int // reflections per injected token, fixed by the seed

	// limit > 0 throttles the head through throttledIn: it admits a token
	// only while fewer than limit are in flight between head and sink.
	limit, inFlight int
}

// throttledIn is an exotic in-port (stage.Exotic): it hides its tokens
// while the pipeline holds limit tokens in flight, so the head's readiness
// depends on the tail's firings on another PE — state no queue or credit
// hook sees, which makes the head's PE poll.
type throttledIn struct {
	stage.InPort
	p *randPipeline
}

func (t throttledIn) open() bool { return t.p.inFlight < t.p.limit }

func (t throttledIn) Len() int {
	if !t.open() {
		return 0
	}
	return t.InPort.Len()
}

func (t throttledIn) Peek() (queue.Token, bool) {
	if !t.open() {
		return queue.Token{}, false
	}
	return t.InPort.Peek()
}

func (t throttledIn) Pop() (queue.Token, bool) {
	if !t.open() {
		return queue.Token{}, false
	}
	tok, ok := t.InPort.Pop()
	if ok {
		t.p.inFlight++
	}
	return tok, ok
}

// tokenOf packs (id, reflectionsLeft); values stay below the identity
// array's extent so DRM hops preserve them exactly.
func tokenOf(id, refl int) uint64 { return uint64(id*16 + refl) }

// buildRandPipeline wires the random chain onto sys. The seed fixes the PE
// order, the hop behaviors (plain forward, coupled load, DRM dereference),
// queue capacities, the reflection schedule, and whether the head is
// throttled.
func buildRandPipeline(t *testing.T, sys *System, seed int64) *randPipeline {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := len(sys.PEs)
	chain := rng.Perm(n)

	// Identity array: arr[i] = i, so a DRM dereference of arr+(v%ext)*8
	// returns v for every token value this pipeline produces.
	const ext = 4096
	arr := sys.Backing.AllocWords(ext)
	for i := 0; i < ext; i++ {
		sys.Backing.Store(arr+mem.Addr(i*8), uint64(i))
	}

	p := &randPipeline{
		maxRound: 3 + rng.Intn(3),
		batch:    8 + rng.Intn(17),
	}
	for i := 0; i < p.batch*(p.maxRound+1); i++ {
		p.refl = append(p.refl, rng.Intn(4))
	}

	// inbox[k] feeds the stage on chain[k]: a local queue for the head (the
	// program seeds it directly), a credited inter-PE queue for every later
	// hop (producer chain[k-1], consumer chain[k]).
	inPort := make([]stage.InPort, n)
	outPort := make([]stage.OutPort, n) // producer-side port into inbox[k]
	p.inbox0 = sys.PE(chain[0]).AllocQueue("in", 64)
	inPort[0] = stage.LocalPort{Q: p.inbox0}
	if rng.Intn(2) == 0 {
		p.limit = 2 + rng.Intn(6)
		inPort[0] = throttledIn{InPort: inPort[0], p: p}
	}
	for k := 1; k < n; k++ {
		a := sys.InterPEQueue(chain[k], fmt.Sprintf("hop%d", k), 4+rng.Intn(9), 1)
		inPort[k] = stage.ArbiterPort{A: a}
		outPort[k] = stage.CreditOut{P: a.Port(0)}
	}
	// The reflection edge: the tail sends tokens with reflections left back
	// to a mid-chain PE, which merges them into the forward flow.
	backIdx := 1 + rng.Intn(n/2)
	backArb := sys.InterPEQueue(chain[backIdx], "back", 4+rng.Intn(5), 1)

	for k := 0; k < n-1; k++ {
		k := k
		pe := sys.PE(chain[k])
		ins := []stage.InPort{inPort[k]}
		if k == backIdx {
			ins = append(ins, stage.ArbiterPort{A: backArb})
		}
		fwd := func(c *stage.Ctx, v uint64) bool { return c.Out[0].Push(queue.Data(v)) }
		switch rng.Intn(3) {
		case 0: // plain forward
		case 1: // coupled load (fabric stall on miss)
			inner := fwd
			fwd = func(c *stage.Ctx, v uint64) bool {
				if !inner(c, v) {
					return false
				}
				c.Load(arr + mem.Addr((v%ext)*8))
				return true
			}
		case 2: // DRM dereference hop: address in, identical value out
			d := pe.DRM(0)
			d.Configure(DRMDereference, outPort[k+1])
			fwd = func(c *stage.Ctx, v uint64) bool {
				return c.Out[0].Push(queue.Data(uint64(arr) + (v%ext)*8))
			}
			outPort[k+1] = stage.LocalPort{Q: d.In()}
		}
		pe.AddStage(&stage.Stage{
			Kernel: stage.KernelFunc{KernelName: fmt.Sprintf("hop%d", k), Fn: func(c *stage.Ctx) stage.Status {
				for i := len(c.In) - 1; i >= 0; i-- {
					t, ok := c.In[i].Peek()
					if !ok {
						continue
					}
					if c.Out[0].Space() < 1 {
						return stage.NoOutput
					}
					if !fwd(c, t.Value) {
						return stage.NoOutput
					}
					c.In[i].Pop()
					return stage.Fired
				}
				return stage.NoInput
			}},
			Mapping: passDFG(fmt.Sprintf("hop%d", k)),
			In:      ins,
			Out:     []stage.OutPort{outPort[k+1]},
		})
	}
	// Tail: reflect tokens with reflections left, sink the rest.
	backOut := stage.CreditOut{P: backArb.Port(0)}
	sys.PE(chain[n-1]).AddStage(&stage.Stage{
		Kernel: stage.KernelFunc{KernelName: "tail", Fn: func(c *stage.Ctx) stage.Status {
			t, ok := c.In[0].Peek()
			if !ok {
				return stage.NoInput
			}
			if t.Value%16 > 0 {
				if !backOut.Push(queue.Data(t.Value - 1)) {
					return stage.NoOutput
				}
			} else {
				p.sunk++
				p.inFlight--
			}
			c.In[0].Pop()
			return stage.Fired
		}},
		Mapping: passDFG("tail"),
		In:      []stage.InPort{inPort[n-1]},
	})
	return p
}

// Quiesced implements Program: record the CPI stacks, then inject the next
// batch or finish.
func (p *randPipeline) Quiesced(sys *System) bool {
	for _, pe := range sys.PEs {
		p.quiesced = append(p.quiesced, pe.Stack)
	}
	if p.rounds > p.maxRound {
		return false
	}
	for j := 0; j < p.batch; j++ {
		id := p.rounds*p.batch + j
		p.inbox0.Enq(queue.Data(tokenOf(id, p.refl[id])))
	}
	p.rounds++
	return true
}

// runRandPipeline builds and runs one seeded pipeline on a machine of the
// given PE count, on the parking kernel or the naive oracle, returning every
// comparable surface.
func runRandPipeline(t *testing.T, seed int64, pes int, oracle bool) (Result, error, *System, *trace.Collector, *randPipeline) {
	t.Helper()
	cfg := testConfig(pes)
	col := trace.NewCollector(1 << 16)
	cfg.Tracer = col
	cfg.Metrics = col
	cfg.MetricsCycles = 128
	cfg.WatchdogCycles = 1 << 16
	cfg.AuditCycles = 64
	cfg.NoFastForward = oracle
	sys := NewSystem(cfg)
	p := buildRandPipeline(t, sys, seed)
	p.inbox0.Enq(queue.Data(tokenOf(0, 0))) // pre-seed so the run starts busy
	res, err := sys.Run(p)
	return res, err, sys, col, p
}

// TestShardInvarianceRandomPipelines is the core differential pin: for each
// seed and machine size, the parking kernel must match the oracle on
// Result, final cycle, per-PE CPI stacks (at the end and at every
// quiescence call), DRM counters, trace events, metrics rows (whose
// queue-token gauge is read every 128 cycles), and the functional output
// (tokens sunk).
func TestShardInvarianceRandomPipelines(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, pes := range []int{3, 4, 8, 16} {
				name := fmt.Sprintf("pes%d", pes)
				wantRes, wantErr, wantSys, wantCol, wantP := runRandPipeline(t, seed, pes, true)
				if wantErr != nil {
					t.Fatalf("%s oracle: %v", name, wantErr)
				}
				if wantP.sunk == 0 {
					t.Fatalf("%s: pipeline sank no tokens; the topology is degenerate", name)
				}
				res, err, sys, col, p := runRandPipeline(t, seed, pes, false)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if p.sunk != wantP.sunk {
					t.Errorf("%s: sank %d tokens, oracle sank %d", name, p.sunk, wantP.sunk)
				}
				if !reflect.DeepEqual(p.quiesced, wantP.quiesced) {
					t.Errorf("%s: CPI stacks at quiescence differ", name)
				}
				if sys.Cycle != wantSys.Cycle {
					t.Errorf("%s: final cycle %d, oracle %d", name, sys.Cycle, wantSys.Cycle)
				}
				if !reflect.DeepEqual(res, wantRes) {
					t.Errorf("%s: Result differs\nparking: %+v\noracle:  %+v", name, res, wantRes)
				}
				for i := range sys.PEs {
					pe, want := sys.PEs[i], wantSys.PEs[i]
					if pe.Stack != want.Stack {
						t.Errorf("%s: pe%d CPI stack differs: %+v vs %+v", name, i, pe.Stack, want.Stack)
					}
					for j, d := range pe.DRMs {
						w := want.DRMs[j]
						if d.OutFull != w.OutFull || d.Accesses != w.Accesses || d.Emitted != w.Emitted {
							t.Errorf("%s: %s counters differ", name, d.Name())
						}
					}
				}
				if !reflect.DeepEqual(col.Events(), wantCol.Events()) {
					diffEvents(t, col.Events(), wantCol.Events())
				}
				if !reflect.DeepEqual(col.Rows(), wantCol.Rows()) {
					t.Errorf("%s: metrics rows differ", name)
				}
				if err := sys.CheckInvariants(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

// TestProbeShardInvarianceManySeeds widens the property to 150 seeds on the
// 8-PE machine, comparing parking against the oracle on Result, CPI stacks
// at every quiescence call, metrics rows, and events.
func TestProbeShardInvarianceManySeeds(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			wantRes, wantErr, _, wantCol, wantP := runRandPipeline(t, seed, 8, true)
			if wantErr != nil {
				t.Fatalf("oracle: %v", wantErr)
			}
			res, err, _, col, p := runRandPipeline(t, seed, 8, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.quiesced, wantP.quiesced) {
				t.Errorf("CPI stacks at quiescence differ")
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Errorf("Result differs\nparking: %+v\noracle:  %+v", res, wantRes)
			}
			if !reflect.DeepEqual(col.Rows(), wantCol.Rows()) {
				t.Errorf("metrics rows differ")
			}
			if !reflect.DeepEqual(col.Events(), wantCol.Events()) {
				t.Errorf("events differ")
			}
		})
	}
}

// stuckProgram builds the canonical deadlock shape (a stage that always
// reports NoOutput over register-held work) on the last PE, so every PE
// below it parks for the whole run.
func stuckProgram(sys *System) Program {
	pe := sys.PE(len(sys.PEs) - 1)
	q := pe.AllocQueue("q", 4)
	q.Enq(queue.Data(1))
	pe.AddStage(&stage.Stage{
		Kernel: stage.KernelFunc{KernelName: "stuck", Fn: func(*stage.Ctx) stage.Status {
			return stage.NoOutput
		}},
		Mapping:   passDFG("stuck"),
		In:        []stage.InPort{stage.LocalPort{Q: q}},
		StateWork: func() int { return 1 },
	})
	return ProgramFunc(func(*System) bool { return false })
}

// TestShardDeadlockParity pins the failure path: a deadlocked machine must
// trip the watchdog at the same checkpoint cycle with the same structured
// report and error text on the parking kernel and the oracle.
func TestShardDeadlockParity(t *testing.T) {
	run := func(oracle bool) (error, uint64) {
		cfg := testConfig(4)
		cfg.WatchdogCycles = 2048
		cfg.NoFastForward = oracle
		sys := NewSystem(cfg)
		_, err := sys.Run(stuckProgram(sys))
		return err, sys.Cycle
	}
	oracleErr, oracleCycle := run(true)
	err, cycle := run(false)
	var oracleDL, dl *DeadlockError
	if !errors.As(oracleErr, &oracleDL) || !errors.As(err, &dl) {
		t.Fatalf("expected deadlocks, got oracle=%v parking=%v", oracleErr, err)
	}
	if !reflect.DeepEqual(oracleDL.Report, dl.Report) {
		t.Errorf("deadlock reports differ\nparking: %+v\noracle:  %+v", dl.Report, oracleDL.Report)
	}
	if oracleErr.Error() != err.Error() {
		t.Errorf("error text differs\nparking: %v\noracle:  %v", err, oracleErr)
	}
	if oracleCycle != cycle {
		t.Errorf("deadlock detected at cycle %d parking, %d oracle", cycle, oracleCycle)
	}
}

// TestShardMaxCyclesParity pins budget exhaustion, including the
// BlockedSummary dump embedded in the error string (which requires the
// parking kernel to settle deferred accounting before formatting it).
func TestShardMaxCyclesParity(t *testing.T) {
	run := func(oracle bool) (error, uint64) {
		cfg := testConfig(4)
		cfg.WatchdogCycles = 0
		cfg.MaxCycles = 5000
		cfg.NoFastForward = oracle
		sys := NewSystem(cfg)
		_, err := sys.Run(stuckProgram(sys))
		return err, sys.Cycle
	}
	oracleErr, oracleCycle := run(true)
	err, cycle := run(false)
	if !errors.Is(oracleErr, ErrMaxCycles) || !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("expected ErrMaxCycles, got oracle=%v parking=%v", oracleErr, err)
	}
	if oracleErr.Error() != err.Error() {
		t.Errorf("error text differs\nparking: %v\noracle:  %v", err, oracleErr)
	}
	if oracleCycle != 5000 || cycle != 5000 {
		t.Errorf("budget exhaustion at cycles parking=%d oracle=%d, want 5000", cycle, oracleCycle)
	}
}

// TestShardCorruptionParity pins the typed-corruption path: a queue-layer
// panic raised mid-sweep, while every lower PE has been parked for hundreds
// of cycles, must surface as the same ErrInvariant — dump included — as on
// the oracle, where those PEs had already ticked the panicking cycle.
func TestShardCorruptionParity(t *testing.T) {
	run := func(oracle bool) error {
		cfg := testConfig(4)
		cfg.NoFastForward = oracle
		sys := NewSystem(cfg)
		pe := sys.PE(len(sys.PEs) - 1)
		pe.AddStage(&stage.Stage{
			Kernel: stage.KernelFunc{KernelName: "corrupt", Fn: func(c *stage.Ctx) stage.Status {
				if c.Now == 300 {
					panic(&queue.Corruption{Component: "corrupt", Detail: "synthetic"})
				}
				return stage.Fired
			}},
			Mapping:   passDFG("corrupt"),
			StateWork: func() int { return 1 },
		})
		_, err := sys.Run(ProgramFunc(func(*System) bool { return false }))
		return err
	}
	oracleErr, err := run(true), run(false)
	if !errors.Is(oracleErr, ErrInvariant) || !errors.Is(err, ErrInvariant) {
		t.Fatalf("expected ErrInvariant, got oracle=%v parking=%v", oracleErr, err)
	}
	if oracleErr.Error() != err.Error() {
		t.Errorf("error text differs\nparking: %v\noracle:  %v", err, oracleErr)
	}
}
