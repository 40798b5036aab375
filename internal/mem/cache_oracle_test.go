package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// oracleLevel is the slice-of-slices Level the flat tag array replaced: one
// tag stack and one dirty stack per set, MRU first. It is kept as the
// reference the flat layout must match access for access.
type oracleLevel struct {
	sets    int
	ways    int
	latency uint64
	parent  lower

	tags  [][]uint64
	dirty [][]bool

	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

func newOracleLevel(sizeBytes, ways int, latency uint64, parent lower) *oracleLevel {
	sets := sizeBytes / LineBytes / ways
	l := &oracleLevel{sets: sets, ways: ways, latency: latency, parent: parent}
	l.tags = make([][]uint64, sets)
	l.dirty = make([][]bool, sets)
	for i := range l.tags {
		l.tags[i] = make([]uint64, 0, ways)
		l.dirty[i] = make([]bool, 0, ways)
	}
	return l
}

func (l *oracleLevel) setOf(line Addr) int {
	return int(uint64(line) / LineBytes % uint64(l.sets))
}

func (l *oracleLevel) lookup(line Addr, write bool) bool {
	s := l.setOf(line)
	tags, dirty := l.tags[s], l.dirty[s]
	for i, t := range tags {
		if t == uint64(line) {
			d := dirty[i] || write
			copy(tags[1:i+1], tags[:i])
			copy(dirty[1:i+1], dirty[:i])
			tags[0], dirty[0] = uint64(line), d
			return true
		}
	}
	return false
}

func (l *oracleLevel) fill(line Addr, write bool) {
	s := l.setOf(line)
	tags, dirty := l.tags[s], l.dirty[s]
	if len(tags) == l.ways {
		if dirty[len(dirty)-1] {
			l.Writebacks++
		}
		tags = tags[:len(tags)-1]
		dirty = dirty[:len(dirty)-1]
	}
	tags = append(tags, 0)
	dirty = append(dirty, false)
	copy(tags[1:], tags)
	copy(dirty[1:], dirty)
	tags[0], dirty[0] = uint64(line), write
	l.tags[s], l.dirty[s] = tags, dirty
}

func (l *oracleLevel) access(now uint64, line Addr, write bool) uint64 {
	l.Accesses++
	if l.lookup(line, write) {
		return now + l.latency
	}
	l.Misses++
	ready := l.parent.access(now+l.latency, line, write)
	l.fill(line, write)
	return ready
}

func (l *oracleLevel) Contains(addr Addr) bool {
	line := addr.Line()
	for _, t := range l.tags[l.setOf(line)] {
		if t == uint64(line) {
			return true
		}
	}
	return false
}

func (l *oracleLevel) invalidate(line Addr) {
	s := l.setOf(line)
	tags, dirty := l.tags[s], l.dirty[s]
	for i, t := range tags {
		if t == uint64(line) {
			l.tags[s] = append(tags[:i], tags[i+1:]...)
			l.dirty[s] = append(dirty[:i], dirty[i+1:]...)
			break
		}
	}
	if l.parent != nil {
		l.parent.invalidate(line)
	}
}

// sameState reports the first set whose tag order or dirty flags differ.
func sameState(got *Level, want *oracleLevel) error {
	for s := 0; s < want.sets; s++ {
		set := got.set(s)
		if len(set) != len(want.tags[s]) {
			return fmt.Errorf("set %d holds %d lines, oracle %d", s, len(set), len(want.tags[s]))
		}
		for i, w := range set {
			line, dirty := w&^dirtyBit, w&dirtyBit != 0
			if line != want.tags[s][i] || dirty != want.dirty[s][i] {
				return fmt.Errorf("set %d way %d: line %#x dirty %v, oracle %#x dirty %v",
					s, i, line, dirty, want.tags[s][i], want.dirty[s][i])
			}
		}
	}
	return nil
}

// TestLevelMatchesOracle drives an L1-over-LLC stack of flat Levels and the
// same stack of oracle levels with one random stream of loads, stores and
// invalidates, and requires every ready cycle, counter and Contains answer
// to agree. The shapes cover 1, 8 and 16 ways, power-of-two set counts
// (masked setOf) and others (modulo setOf): the 3-PE LLC has 1536 sets, and
// a 9-core OOO LLC shrunk by an LLC divisor of 3 has 6144.
func TestLevelMatchesOracle(t *testing.T) {
	type shape struct{ bytes, ways int }
	cases := []struct {
		name    string
		l1, llc shape
	}{
		{"direct-mapped", shape{4 << 10, 1}, shape{6 << 10, 1}},         // 64 / 96 sets
		{"one-set", shape{8 * LineBytes, 8}, shape{16 * LineBytes, 16}}, // fully associative
		{"odd-sets", shape{3 * 8 * LineBytes, 8}, shape{5 * 16 * LineBytes, 16}},
		{"pe1", shape{32 << 10, 8}, shape{DefaultPEHierarchy(1).LLCBytes, 16}},
		{"pe3", shape{32 << 10, 8}, shape{DefaultPEHierarchy(3).LLCBytes, 16}},
		{"l1-16way-llcdiv3", shape{32 << 10, 16}, shape{DefaultCoreHierarchy(9).LLCBytes / 3, 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hbm := NewHBM(120, 128)
			llc := NewLevel("llc", tc.llc.bytes, tc.llc.ways, 40, hbm)
			l1 := NewLevel("l1", tc.l1.bytes, tc.l1.ways, 4, llc)
			ohbm := NewHBM(120, 128)
			ollc := newOracleLevel(tc.llc.bytes, tc.llc.ways, 40, ohbm)
			ol1 := newOracleLevel(tc.l1.bytes, tc.l1.ways, 4, ollc)

			// Half the stream hits a hot region the size of the L1, the
			// rest spreads over twice the LLC and runs long enough to fill
			// it, so both hits with LRU promotion and dirty evictions happen
			// at every level.
			hot := tc.l1.bytes / LineBytes
			wide := 2 * tc.llc.bytes / LineBytes
			steps := 20000 + 2*wide
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			now := uint64(0)
			for step := 0; step < steps; step++ {
				var line int
				if rng.Intn(2) == 0 {
					line = rng.Intn(hot)
				} else {
					line = rng.Intn(wide)
				}
				a := Addr(line*LineBytes + rng.Intn(LineBytes/WordBytes)*WordBytes)
				switch op := rng.Intn(16); {
				case op == 0:
					l1.Invalidate(a)
					ol1.invalidate(a.Line())
				default:
					write := op < 6
					got, want := l1.Access(now, a, write), ol1.access(now, a.Line(), write)
					if got != want {
						t.Fatalf("step %d: access %#x write=%v ready %d, oracle %d", step, a, write, got, want)
					}
				}
				probe := Addr(rng.Intn(wide) * LineBytes)
				for _, p := range []Addr{a, probe} {
					if l1.Contains(p) != ol1.Contains(p) || llc.Contains(p) != ollc.Contains(p) {
						t.Fatalf("step %d: Contains(%#x) differs from oracle", step, p)
					}
				}
				if l1.Accesses != ol1.Accesses || l1.Misses != ol1.Misses || l1.Writebacks != ol1.Writebacks ||
					llc.Accesses != ollc.Accesses || llc.Misses != ollc.Misses || llc.Writebacks != ollc.Writebacks {
					t.Fatalf("step %d: counters l1 %d/%d/%d llc %d/%d/%d, oracle l1 %d/%d/%d llc %d/%d/%d", step,
						l1.Accesses, l1.Misses, l1.Writebacks, llc.Accesses, llc.Misses, llc.Writebacks,
						ol1.Accesses, ol1.Misses, ol1.Writebacks, ollc.Accesses, ollc.Misses, ollc.Writebacks)
				}
				now += uint64(rng.Intn(8))
			}
			if err := sameState(l1, ol1); err != nil {
				t.Fatalf("l1: %v", err)
			}
			if err := sameState(llc, ollc); err != nil {
				t.Fatalf("llc: %v", err)
			}
			if l1.Writebacks == 0 || llc.Writebacks == 0 || l1.Misses == l1.Accesses {
				t.Fatalf("stream too weak: l1 %d/%d/%d llc %d/%d/%d", l1.Accesses, l1.Misses, l1.Writebacks,
					llc.Accesses, llc.Misses, llc.Writebacks)
			}
		})
	}
}
