package core

import (
	"fmt"

	"fifer/internal/queue"
	"fifer/internal/trace"
)

// The simulation kernel (DESIGN.md §10): event-horizon wakes, per-PE
// parking, and fast-forward, in one sequential loop.
//
// Every PE.Tick publishes a wake cycle: the earliest future cycle at which
// that PE — fabric or any of its DRMs — could possibly act. "Act" means any
// state change beyond the fixed per-cycle bookkeeping of an inert machine:
// firing, activating, beginning or finishing a reconfiguration, issuing or
// delivering a DRM access, enqueueing or dequeueing a token. The sources:
//
//   - fabric reconfiguring:   wake = reconfigUntil (each cycle until then
//     charges Reconfig; the activation at reconfigUntil is the action)
//   - fabric stalled:         wake = stallUntil (charges Stall)
//   - fabric blocked:         wake = the soonest cooldown expiry among
//     ready-but-cooling stages (charges Queue or Idle); horizonNever when
//     only another component's token flow can unblock it
//   - fabric acted:           wake = now+1 (no window can start)
//   - DRM head in flight:     wake = inflight.front().ready
//   - DRM delivered/issued:   wake = now+1
//   - DRM otherwise:          horizonNever (needs input tokens, output
//     space, or a completion slot — all external)
//
// A PE whose wake lies in the future is bit-exactly inert until then unless
// something arrives from outside, so each cycle the loop walks the PEs in
// ascending id and ticks only those that can act: wake <= now, an external
// arrival marked since the last tick (dirty), or a poll PE after a firing.
// The rest are parked: their fixed per-cycle charges (CPI bucket,
// blocked-DRM OutFull counts, the sliding scheduler cooldown) are deferred
// and replayed lazily by peCatchUp, which applies exactly what the naive
// loop would have applied cycle by cycle.
// When no PE can act before some future cycle W, the loop jumps the clock
// to min(W, next observation boundary) — with every PE parked, the jump is
// the whole job.
//
// Arrival marks come from exchange hooks on every inter-PE arbiter:
//
//   - a credited send marks the consumer dirty and busy. A consumer with a
//     higher id than the sender ticks this same cycle and one with a lower
//     id next cycle, which is exactly the ascending-order visibility rule
//     of the naive loop. Its deferred charges need no settling here: a
//     send changes nothing they depend on, and the tick catches them up;
//   - a credit return marks the producing port's PE dirty (the port→PE
//     binding is learned at the port's first send; a return always follows
//     a send);
//   - program injection at quiescence bypasses the queue hooks, so a round
//     marks every PE dirty.
//
// A stage with an exotic port (stage.Exotic) may read program state the
// hooks cannot see, such as a throttle decremented by a stage on another
// PE. Its PE polls: it ticks on the current cycle if an earlier PE fired in
// this cycle, and on the next cycle after any firing. OnCycle hooks (fault
// injectors mutate state at arbitrary cycles) tick every PE and disable the
// jump; Config.NoFastForward does the same and is the naive oracle.
//
// Observation boundaries that read non-monotonic state — metrics samples,
// audits, quiescence calls, error dumps, run completion — settle every PE
// first; they also clamp the jump, so every check runs at its original
// cycle against the same state as in the naive loop. The watchdog's
// signature reads only monotonic counters, frozen for parked PEs, and needs
// no settling. The only behavioral assumption is the kernel contract
// stage.Kernel documents: a blocked TryFire consumes nothing and is
// repeatable. The parking-vs-oracle differential suites pin the equivalence
// on every surface.

// horizonNever is the wake cycle of a component that cannot act again
// without an external state change.
const horizonNever = ^uint64(0)

// runSeq drives the system until the program reports completion; see the
// kernel description above.
func (s *System) runSeq(prog Program) (res Result, err error) {
	// The watchdog compares monotonic progress counters at checkpoints half
	// a window apart: two equal consecutive snapshots prove zero progress
	// over at least half a window, and the deadlock is reported within one
	// full window of the last real progress.
	var wdInterval uint64
	if s.Cfg.WatchdogCycles > 0 {
		if wdInterval = s.Cfg.WatchdogCycles / 2; wdInterval == 0 {
			wdInterval = 1
		}
	}
	// Cancellation rides the watchdog's checkpoint cadence so it adds no
	// per-cycle work of its own; with the watchdog disabled it falls back
	// to a fixed polling interval.
	var cancelEvery uint64
	if s.Cfg.Done != nil {
		if cancelEvery = wdInterval; cancelEvery == 0 {
			cancelEvery = cancelInterval
		}
		select {
		case <-s.Cfg.Done:
			return res, s.canceledError()
		default:
		}
	}
	// Metrics sampling rides its own period; zero Cfg.Metrics keeps
	// sampleEvery at 0, reducing the per-cycle cost to one comparison.
	var sampleEvery uint64
	if s.Cfg.Metrics != nil {
		if sampleEvery = s.Cfg.MetricsCycles; sampleEvery == 0 {
			sampleEvery = DefaultMetricsCycles
		}
		if s.lastStacks == nil {
			s.lastStacks = make([]CPIStack, len(s.PEs))
		}
	}
	for _, pe := range s.PEs {
		pe.caughtUp = s.Cycle
		pe.poll = false
		for _, st := range pe.stages {
			pe.poll = pe.poll || st.Exotic()
		}
	}
	s.markAll()
	lastSig := s.progressSig()
	lastProgress := s.Cycle
	// checks runs the per-cycle observation points at the current (already
	// incremented) cycle: cancellation poll, metrics sample, watchdog
	// checkpoint, invariant audit, cycle budget. The fast-forward path calls
	// it too, after landing the clock exactly on the next boundary.
	checks := func() (stop bool, err error) {
		if cancelEvery > 0 && s.Cycle%cancelEvery == 0 {
			select {
			case <-s.Cfg.Done:
				s.settle()
				return true, s.canceledError()
			default:
			}
		}
		if sampleEvery > 0 && s.Cycle%sampleEvery == 0 {
			s.settle()
			s.sampleMetrics()
		}
		if wdInterval > 0 && s.Cycle%wdInterval == 0 {
			sig := s.progressSig()
			if s.tracer != nil {
				s.tracer.Emit(trace.Event{Cycle: s.Cycle, PE: -1,
					Kind: trace.KindCheckpoint, Name: "watchdog", Arg: sig.firings})
			}
			if sig == lastSig {
				s.settle()
				return true, s.deadlockError(lastProgress)
			}
			lastSig, lastProgress = sig, s.Cycle
		}
		if s.Cfg.AuditCycles > 0 && s.Cycle%s.Cfg.AuditCycles == 0 {
			s.settle()
			if aerr := s.AuditLive(); aerr != nil {
				return true, aerr
			}
		}
		if s.Cycle >= s.Cfg.MaxCycles {
			s.settle()
			return true, fmt.Errorf("%w: MaxCycles=%d (deadlock or runaway program)\n%s",
				ErrMaxCycles, s.Cfg.MaxCycles, s.BlockedSummary(dumpExcerptLines))
		}
		return false, nil
	}
	for {
		now := s.Cycle
		tickAll := s.Cfg.NoFastForward || len(s.hooks) > 0
		for _, f := range s.hooks {
			f(s, now)
		}
		fired := false
		for _, pe := range s.PEs {
			if tickAll || pe.dirty || pe.wake <= now || (fired && pe.poll) {
				s.peCatchUp(pe, now)
				pe.dirty = false
				s.curPE = pe
				pe.Tick(now)
				pe.caughtUp = now + 1
				pe.busyStale = true
				fired = fired || pe.firedNow
			}
		}
		s.curPE = nil
		// The quiet scan reads each PE's cached busy flag, refreshing it
		// only after a tick: a parked PE's Busy answer is frozen except for
		// arrivals, which set it directly.
		quiet := true
		sysWake := horizonNever
		for _, pe := range s.PEs {
			if fired && pe.poll {
				pe.dirty = true
			}
			w := pe.wake
			if pe.dirty {
				w = now + 1
			}
			if w < sysWake {
				sysWake = w
			}
			if quiet {
				if pe.busyStale {
					pe.busy, pe.busyStale = pe.Busy(now), false
				}
				quiet = !pe.busy
			}
		}
		s.Cycle++
		if quiet {
			s.settle()
			if !prog.Quiesced(s) {
				break
			}
			res.Rounds++
			s.markAll()
		}
		if stop, cerr := checks(); stop {
			return res, cerr
		}
		// Fast-forward: no PE can act before sysWake, so jump the clock to
		// the earlier of sysWake and the next observation boundary, then run
		// that boundary's checks at its original cycle. Skipped when the
		// system just quiesced (the program may have injected new work the
		// stale wakes don't see) and whenever every PE ticks every cycle.
		if !quiet && sysWake > s.Cycle && !tickAll {
			w := sysWake
			clampMult := func(period uint64) {
				if period > 0 {
					if next := (s.Cycle/period + 1) * period; next < w {
						w = next
					}
				}
			}
			clampMult(cancelEvery)
			clampMult(sampleEvery)
			clampMult(wdInterval)
			clampMult(s.Cfg.AuditCycles)
			if s.Cfg.MaxCycles < w {
				w = s.Cfg.MaxCycles
			}
			s.Cycle = w
			if stop, cerr := checks(); stop {
				return res, cerr
			}
		}
	}
	s.settle()
	s.finishRun(&res)
	return res, nil
}

// markAll obliges every PE to tick next cycle and drops every cached busy
// flag: program injection and unattributed credit returns change state the
// arrival hooks did not see.
func (s *System) markAll() {
	for _, pe := range s.PEs {
		pe.dirty, pe.busyStale = true, true
	}
}

// exchangeHooks wires one inter-PE arbiter into the wake protocol (see the
// kernel description above), chaining the credit-tracing hook so traced runs
// emit the same event stream with or without parking.
func (s *System) exchangeHooks(a *queue.Arbiter, consumer *PE) {
	// producer[p] is the PE that was ticking when port p first sent. A port
	// has exactly one producer PE, so the binding is stable; nil means the
	// port has not sent from inside a tick yet.
	producer := make([]*PE, a.Ports())
	a.SetSendHook(func(port int) {
		if producer[port] == nil {
			producer[port] = s.curPE
		}
		consumer.dirty = true
		consumer.busy, consumer.busyStale = true, false
	})
	traceHook := s.creditTracer(consumer.ID, a.Queue())
	a.SetCreditHook(func(port int, granted bool) {
		if !granted {
			// A return changes only the producer port's credit counter,
			// nothing peCatchUp accounts; the producer just has to tick.
			if p := producer[port]; p != nil {
				p.dirty = true
			} else {
				s.markAll()
			}
		}
		if traceHook != nil {
			traceHook(port, granted)
		}
	})
}

// peCatchUp replays one parked PE's deferred per-cycle accounting for cycles
// [caughtUp, to): the fixed charges the naive loop would have applied.
func (s *System) peCatchUp(pe *PE, to uint64) {
	if from := pe.caughtUp; to > from {
		pe.advanceInert(to, to-from)
		pe.caughtUp = to
	}
}

// settle brings every PE's deferred accounting up to the current cycle, so
// observation boundaries see exactly the naive loop's state.
func (s *System) settle() {
	for _, pe := range s.PEs {
		s.peCatchUp(pe, s.Cycle)
	}
}

// settleCut settles a run that a panic cut short. Inside the sweep (curPE
// set), the naive loop had already ticked every PE below curPE at this
// cycle, so a parked one is charged that cycle too.
func (s *System) settleCut() {
	s.settle()
	if cur := s.curPE; cur != nil {
		for _, pe := range s.PEs[:cur.ID] {
			if pe.caughtUp == s.Cycle {
				pe.advanceInert(s.Cycle+1, 1)
				pe.caughtUp = s.Cycle + 1
			}
		}
	}
}

// advanceInert applies k inert cycles (ending at cycle to-1) to one PE.
func (p *PE) advanceInert(to, k uint64) {
	switch p.inertBucket {
	case bucketReconfig:
		p.Stack.Reconfig += k
	case bucketStall:
		p.Stack.Stall += k
	case bucketQueue:
		p.Stack.Queue += k
	case bucketIdle:
		p.Stack.Idle += k
	}
	if p.slideCooldown {
		// The naive loop re-arms the fruitless activation's cooldown every
		// blocked cycle; only the final value is ever observable.
		p.cooldownUntil[p.active] = (to - 1) + schedCooldown
	}
	for _, d := range p.DRMs {
		if d.outBlocked {
			d.OutFull += k
		}
	}
}
