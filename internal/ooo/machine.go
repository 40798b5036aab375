package ooo

import "fifer/internal/mem"

// Machine is a 1- or 4-core OOO system sharing an LLC and main memory, the
// paper's "Serial OoO" and "OoO baseline 4-core" comparison systems.
type Machine struct {
	Cfg     Config
	Backing *mem.Backing
	Hier    *mem.Hierarchy
	Cores   []*Core
}

// NewMachine builds an OOO machine with n cores over the Table 2
// core-memory hierarchy and a backing store of backingBytes.
func NewMachine(n int, backingBytes int) *Machine {
	return NewMachineLLCDiv(n, backingBytes, 1)
}

// NewMachineLLCDiv is NewMachine with the shared LLC shrunk by llcDiv, used
// to keep working-set-to-cache ratios faithful on scaled-down inputs. The
// LLC rounds down to whole sets (mem.HierarchyConfig.ShrinkLLC).
func NewMachineLLCDiv(n, backingBytes, llcDiv int) *Machine {
	h := mem.DefaultCoreHierarchy(n)
	h.ShrinkLLC(llcDiv)
	m := &Machine{
		Cfg:     DefaultConfig(),
		Backing: mem.NewBacking(backingBytes),
		Hier:    mem.NewHierarchy(h),
	}
	for i := 0; i < n; i++ {
		m.Cores = append(m.Cores, NewCore(m.Cfg, m.Hier.Port(i, m.Backing)))
	}
	return m
}

// Barrier synchronizes all cores to the maximum cycle (end of a parallel
// round) and returns that cycle.
func (m *Machine) Barrier() uint64 {
	var max uint64
	for _, c := range m.Cores {
		if c.Cycle() > max {
			max = c.Cycle()
		}
	}
	for _, c := range m.Cores {
		c.SetCycle(max)
	}
	return max
}

// Cycles returns the machine's completion time: the max core cycle.
func (m *Machine) Cycles() uint64 {
	var max uint64
	for _, c := range m.Cores {
		if c.Cycle() > max {
			max = c.Cycle()
		}
	}
	return max
}

// Result summarizes an OOO run for the reporting layer.
type Result struct {
	Cycles      uint64
	Instrs      uint64
	Loads       uint64
	Mispredicts uint64
	Issued      uint64 // cycles attributable to issue bandwidth
}

// Summarize gathers statistics across cores.
func (m *Machine) Summarize() Result {
	var r Result
	r.Cycles = m.Cycles()
	for _, c := range m.Cores {
		r.Instrs += c.Instrs
		r.Loads += c.Loads
		r.Mispredicts += c.Mispredicts
		r.Issued += c.IssuedCycles()
	}
	return r
}
