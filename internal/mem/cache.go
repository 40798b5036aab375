package mem

import "fmt"

// Level is a timing-only set-associative cache with LRU replacement and a
// write-back, write-allocate policy. It tracks tags, not data (data lives in
// the Backing store). Levels are composed into a hierarchy by pointing each
// level's parent at the next-lower level; the lowest level points at a *HBM.
type Level struct {
	name    string
	sets    int
	ways    int
	pow2    bool   // sets is a power of two: setOf masks instead of dividing
	setMask uint64 // sets-1 when pow2
	latency uint64 // access (hit) latency in cycles
	parent  lower  // where misses go

	// lines holds every set's tag stack in one pointer-free array: set s
	// owns lines[s*ways : s*ways+ways], its used[s] resident lines first,
	// MRU first. A word is the line address, with dirtyBit set when the line
	// is dirty; line addresses are LineBytes-aligned, so bit 0 is free.
	lines []uint64
	used  []int32

	// Statistics.
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// dirtyBit marks a dirty line in its tag word.
const dirtyBit = 1

// lower is anything a cache level can miss into.
type lower interface {
	// access returns the cycle at which the requested line is available,
	// given that the request departs this level at cycle `now`.
	access(now uint64, line Addr, write bool) (ready uint64)
	// invalidate removes the line if present (used when testing flush paths).
	invalidate(line Addr)
}

// NewLevel creates a cache level. sizeBytes must be a multiple of
// ways*LineBytes.
func NewLevel(name string, sizeBytes, ways int, latency uint64, parent lower) *Level {
	lines := sizeBytes / LineBytes
	if lines == 0 || lines%ways != 0 {
		panic(fmt.Sprintf("cache %q: size %d B incompatible with %d ways", name, sizeBytes, ways))
	}
	sets := lines / ways
	return &Level{
		name: name, sets: sets, ways: ways,
		pow2: sets&(sets-1) == 0, setMask: uint64(sets - 1),
		latency: latency, parent: parent,
		lines: make([]uint64, lines),
		used:  make([]int32, sets),
	}
}

// Name returns the level's diagnostic name.
func (l *Level) Name() string { return l.name }

// Latency returns the hit latency in cycles.
func (l *Level) Latency() uint64 { return l.latency }

func (l *Level) setOf(line Addr) int {
	n := uint64(line) / LineBytes
	if l.pow2 {
		return int(n & l.setMask)
	}
	return int(n % uint64(l.sets))
}

// set returns set s's resident tag words, MRU first.
func (l *Level) set(s int) []uint64 {
	base := s * l.ways
	return l.lines[base : base+int(l.used[s])]
}

// lookup probes the set for the line; on hit it promotes the line to MRU.
func (l *Level) lookup(line Addr, write bool) bool {
	set := l.set(l.setOf(line))
	for i, w := range set {
		if w&^dirtyBit == uint64(line) {
			if write {
				w |= dirtyBit
			}
			copy(set[1:i+1], set[:i])
			set[0] = w
			return true
		}
	}
	return false
}

// fill inserts the line at MRU, evicting LRU if the set is full.
func (l *Level) fill(line Addr, write bool) {
	s := l.setOf(line)
	base, n := s*l.ways, int(l.used[s])
	if n == l.ways {
		if l.lines[base+n-1]&dirtyBit != 0 {
			l.Writebacks++
			// Writeback traffic occupies memory bandwidth lazily: we charge
			// it on the parent as a non-blocking write at the current time.
			// (The requester does not wait for it.)
		}
		n--
	} else {
		l.used[s]++
	}
	set := l.lines[base : base+n+1]
	copy(set[1:], set[:n])
	set[0] = uint64(line)
	if write {
		set[0] |= dirtyBit
	}
}

// access implements the lower interface so levels can stack.
func (l *Level) access(now uint64, line Addr, write bool) uint64 {
	l.Accesses++
	if l.lookup(line, write) {
		return now + l.latency
	}
	l.Misses++
	ready := l.parent.access(now+l.latency, line, write)
	l.fill(line, write)
	return ready
}

// Access performs a load or store of the line containing addr that departs
// the requester at cycle now, returning the cycle at which the data is
// available. Timing only; use the Backing store for values.
func (l *Level) Access(now uint64, addr Addr, write bool) uint64 {
	return l.access(now, addr.Line(), write)
}

// Contains reports whether the line holding addr is present (no LRU update).
func (l *Level) Contains(addr Addr) bool {
	line := addr.Line()
	for _, w := range l.set(l.setOf(line)) {
		if w&^dirtyBit == uint64(line) {
			return true
		}
	}
	return false
}

// invalidate removes the line from this level and every level below it.
func (l *Level) invalidate(line Addr) {
	s := l.setOf(line)
	set := l.set(s)
	for i, w := range set {
		if w&^dirtyBit == uint64(line) {
			copy(set[i:], set[i+1:])
			l.used[s]--
			break
		}
	}
	if l.parent != nil {
		l.parent.invalidate(line)
	}
}

// Invalidate removes the line containing addr from this level and below.
func (l *Level) Invalidate(addr Addr) { l.invalidate(addr.Line()) }

// HitRate returns the fraction of accesses that hit at this level.
func (l *Level) HitRate() float64 {
	if l.Accesses == 0 {
		return 0
	}
	return 1 - float64(l.Misses)/float64(l.Accesses)
}
