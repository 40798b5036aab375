package core

import (
	"errors"
	"fmt"

	"fifer/internal/mem"
	"fifer/internal/queue"
	"fifer/internal/trace"
)

// ErrMaxCycles reports that a run elapsed Cfg.MaxCycles before the program
// quiesced (deadlock or runaway program). Run's error wraps it, so callers
// up the stack (including the bench harness) can detect budget exhaustion
// with errors.Is even through their own wrapping.
var ErrMaxCycles = errors.New("core: exceeded MaxCycles")

// ErrDeadlock reports that the progress watchdog saw no component of the
// system make progress for Cfg.WatchdogCycles — a deadlock caught long
// before the MaxCycles budget would have burned down. The returned error is
// a *DeadlockError; errors.As exposes the structured DeadlockReport.
var ErrDeadlock = errors.New("core: simulation deadlocked (watchdog)")

// ErrInvariant reports that the live invariant audit (Cfg.AuditCycles)
// found the simulation in an internally inconsistent state, or that the
// queue layer raised a typed corruption that Run recovered. The wrapped
// message names the failing invariant and component.
var ErrInvariant = errors.New("core: simulation invariant violated")

// System is a complete CGRA-based machine: PEs, the shared cache hierarchy,
// the functional backing store, and the control core's run loop (Fig. 4 /
// Fig. 7). Whether it behaves as Fifer or as the static-pipeline baseline is
// set by Config.Mode.
type System struct {
	Cfg     Config
	Backing *mem.Backing
	Hier    *mem.Hierarchy
	PEs     []*PE
	Cycle   uint64

	arbiters []*queue.Arbiter
	// curPE is the PE whose Tick is running, nil outside the sweep; the
	// exchange hooks learn each credit port's producer PE from it.
	curPE *PE

	// hooks run at the top of every cycle, before the PEs tick. They exist
	// for observers and fault injectors (internal/faults); Run never skips
	// them, and an empty list costs one length check per cycle.
	hooks []func(s *System, now uint64)

	// tracer caches Cfg.Tracer for the nil-checked emission sites; the
	// metrics fields hold the sampler's per-PE CPI-stack snapshots (see
	// observe.go). All of them are nil/zero — and cost nothing — when
	// observability is off.
	tracer     trace.Tracer
	lastStacks []CPIStack
	lastSample uint64
}

// NewSystem builds a system from cfg, panicking on an invalid config. It
// keeps the historical convenience of silently sizing Hier.Clients to PEs;
// use NewSystemChecked to get validation errors instead of panics.
func NewSystem(cfg Config) *System {
	if cfg.Hier.Clients != cfg.PEs {
		cfg.Hier.Clients = cfg.PEs
	}
	s, err := NewSystemChecked(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSystemChecked builds a system from cfg after validating it, returning
// an error (rather than a panic or a silently mis-sized machine) for
// non-positive cycle budgets, queue or backing sizes, and Clients/PEs
// mismatches. A zero Hier.Clients is sized to PEs.
func NewSystemChecked(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Hier.Clients == 0 {
		cfg.Hier.Clients = cfg.PEs
	}
	s := &System{
		Cfg:     cfg,
		Backing: mem.NewBacking(cfg.BackingBytes),
		Hier:    mem.NewHierarchy(cfg.Hier),
		tracer:  cfg.Tracer,
	}
	// PEs live in one contiguous backing array so the run loop's per-cycle
	// sweep walks sequential memory instead of pointer-chasing individually
	// boxed PEs; s.PEs keeps the pointer-slice shape the rest of the code
	// works in.
	pes := make([]PE, cfg.PEs)
	s.PEs = make([]*PE, cfg.PEs)
	for i := range pes {
		pes[i].init(i, s)
		s.PEs[i] = &pes[i]
	}
	return s, nil
}

// OnCycle registers f to run at the start of every simulated cycle. It is
// the seam fault injectors use to corrupt a live system at a chosen cycle.
func (s *System) OnCycle(f func(s *System, now uint64)) {
	s.hooks = append(s.hooks, f)
}

// PE returns processing element i.
func (s *System) PE(i int) *PE { return s.PEs[i] }

// InterPEQueue allocates a credited inter-PE queue: the buffer lives in the
// consumer PE's queue memory; producers get credit ports (Sec. 5.6).
func (s *System) InterPEQueue(consumer int, name string, capTokens, producers int) *queue.Arbiter {
	pe := s.PEs[consumer]
	a := queue.NewArbiter(pe.AllocQueue(name, capTokens), producers)
	s.exchangeHooks(a, pe)
	s.arbiters = append(s.arbiters, a)
	return a
}

// creditTracer builds the credit-movement trace hook for an inter-PE queue,
// or nil when tracing is off; exchangeHooks chains it behind the kernel's
// wake bookkeeping.
func (s *System) creditTracer(consumer int, q *queue.Queue) func(port int, granted bool) {
	t := s.tracer
	if t == nil {
		return nil
	}
	return func(port int, granted bool) {
		k := trace.KindCreditReturn
		if granted {
			k = trace.KindCreditGrant
		}
		t.Emit(trace.Event{Cycle: s.Cycle, PE: consumer, Kind: k, Name: q.Name(), Arg: uint64(port)})
	}
}

// Arbiters returns all inter-PE queue arbiters (for invariant checks).
func (s *System) Arbiters() []*queue.Arbiter { return s.arbiters }

// Program is the control-core view of an application: it set up the
// pipelines before Run and is consulted at quiescence points. Returning
// true means new work was injected (e.g. the next BFS round); false means
// the program is complete.
type Program interface {
	Quiesced(sys *System) bool
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(sys *System) bool

// Quiesced implements Program.
func (f ProgramFunc) Quiesced(sys *System) bool { return f(sys) }

// Result summarizes a run.
type Result struct {
	Cycles        uint64
	Stacks        []CPIStack // per PE
	Total         CPIStack   // summed over PEs
	Firings       uint64     // total datapath firings
	Rounds        uint64     // times the program injected new work
	MeanResidence float64
	MeanReconfig  float64
	Reconfigs     uint64

	// PEActivations is each PE's completed stage activations — the counter
	// the trace invariant suite reconciles per-PE stage-switch events
	// against. omitempty keeps journals written before this field existed
	// verifying (their records re-marshal without it, so CRCs still match).
	PEActivations []uint64 `json:"PEActivations,omitempty"`
}

// Run drives the system until the program reports completion. It fails with
// ErrMaxCycles when Cfg.MaxCycles elapse first, with ErrDeadlock when the
// progress watchdog sees no progress for Cfg.WatchdogCycles, with
// ErrInvariant when the live audit finds inconsistent state (including
// queue-layer corruption panics, which are recovered here so a corrupted
// simulation fails as one job instead of crashing the process), and with
// ErrCanceled when Cfg.Done is closed (checked before the first cycle and
// at watchdog-checkpoint granularity thereafter).
func (s *System) Run(prog Program) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(*queue.Corruption)
			if !ok {
				panic(r)
			}
			s.settleCut()
			err = fmt.Errorf("%w: corruption: %s: %s\n%s",
				ErrInvariant, c.Component, c.Detail, s.BlockedSummary(dumpExcerptLines))
		}
	}()
	return s.runSeq(prog)
}

// finishRun flushes the final partial metrics window and aggregates per-PE
// statistics into res, against settled machine state.
func (s *System) finishRun(res *Result) {
	res.Cycles = s.Cycle
	// Flush the final partial metrics window so per-PE deltas sum to the
	// run's cycle count exactly (skipped when the last period landed on the
	// final cycle — the deltas would all be zero).
	if s.Cfg.Metrics != nil && s.Cycle != s.lastSample {
		s.sampleMetrics()
	}
	var sumRes, sumRec, nAct, nRec uint64
	for _, pe := range s.PEs {
		res.Stacks = append(res.Stacks, pe.Stack)
		res.Total.Add(pe.Stack)
		res.PEActivations = append(res.PEActivations, pe.Activations)
		for _, st := range pe.stages {
			res.Firings += st.Firings
		}
		sumRes += pe.SumResidence
		sumRec += pe.SumReconfig
		if pe.Activations > 1 {
			nAct += pe.Activations - 1
		}
		nRec += pe.Reconfigs
	}
	if nAct > 0 {
		res.MeanResidence = float64(sumRes) / float64(nAct)
	}
	if nRec > 0 {
		res.MeanReconfig = float64(sumRec) / float64(nRec)
	}
	res.Reconfigs = nRec
}

// MeanQueueOccupancy returns the average sampled occupancy (tokens) across
// all queue-memory-resident queues — the decoupling actually in use, which
// Sec. 8.3 relates to residence times.
func (s *System) MeanQueueOccupancy() float64 {
	sum, n := 0.0, 0
	for _, pe := range s.PEs {
		for _, q := range pe.QMem.Queues() {
			sum += q.MeanOccupancy()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CheckInvariants verifies conservation properties after a run; it is used
// by integration tests. It returns an error describing the first violation.
func (s *System) CheckInvariants() error {
	for _, pe := range s.PEs {
		total := pe.Stack.Total()
		if total != s.Cycle {
			return fmt.Errorf("pe%d: CPI stack sums to %d, want %d cycles", pe.ID, total, s.Cycle)
		}
		if got := pe.QMem.Buffered(); got != 0 {
			return fmt.Errorf("pe%d: %d tokens still buffered after completion", pe.ID, got)
		}
		for _, d := range pe.DRMs {
			if d.Busy() {
				return fmt.Errorf("%s: still busy after completion", d.Name())
			}
		}
	}
	for _, a := range s.arbiters {
		if got, want := a.TotalCredits(), a.Queue().Cap(); got != want {
			return fmt.Errorf("arbiter %q: %d credits outstanding, want %d", a.Queue().Name(), got, want)
		}
	}
	return nil
}
