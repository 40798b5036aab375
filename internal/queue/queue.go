// Package queue implements Fifer's latency-insensitive channels: virtualized
// FIFO queues stored in a per-PE queue memory, tokens that carry either data
// or control values, and credit-based flow control for inter-PE queues
// (Sec. 3, Sec. 5.3 and Sec. 5.6 of the paper).
package queue

import "fmt"

// TokenBytes is the storage footprint of one queue entry: a 64-bit value
// plus its control bit (the control bit rides in otherwise-unused SRAM ECC
// style bits, so we charge 8 bytes per token, matching the paper's
// machine-word-width channels).
const TokenBytes = 8

// Token is one value traveling through a queue. Ctrl marks control values,
// which PEs handle serially and which delineate iteration or data-set
// boundaries (Sec. 5.5).
type Token struct {
	Value uint64
	Ctrl  bool
}

// Data wraps a plain data value as a token.
func Data(v uint64) Token { return Token{Value: v} }

// Ctrl wraps v as a control token.
func Ctrl(v uint64) Token { return Token{Value: v, Ctrl: true} }

// Queue is a bounded FIFO of tokens, managed as a circular buffer inside a
// PE's queue memory. The zero value is not usable; create queues through a
// Mem so capacity is accounted against the queue SRAM budget.
type Queue struct {
	name string
	buf  []Token
	head int // index of oldest token
	size int // tokens currently buffered

	// Statistics.
	Enqueued uint64 // total tokens ever enqueued
	Dequeued uint64 // total tokens ever dequeued
	FullEvts uint64 // enqueue attempts rejected because the queue was full

	// edge, when non-nil, observes transitions into (true) and out of
	// (false) the full state — the back-pressure stall edges the tracing
	// layer records. Nil (the default) costs one branch per enqueue and
	// dequeue and nothing else.
	edge func(full bool)

	// occ, when non-nil, points at the owning Mem's aggregate occupancy
	// counter so Mem.Buffered() is O(1) instead of a per-cycle rescan of
	// every queue. Maintained on every enqueue, dequeue, and reset.
	occ *int
}

// NewQueue creates a standalone queue with the given capacity in tokens.
// Most callers should allocate queues from a Mem instead; NewQueue exists
// for tests and for conceptually unbounded structures (e.g. the memory
// controller's internal request list).
func NewQueue(name string, capTokens int) *Queue {
	if capTokens <= 0 {
		panic(fmt.Sprintf("queue %q: non-positive capacity %d", name, capTokens))
	}
	return &Queue{name: name, buf: make([]Token, capTokens)}
}

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.name }

// Cap returns the queue capacity in tokens.
func (q *Queue) Cap() int { return len(q.buf) }

// Len returns the number of tokens currently buffered.
func (q *Queue) Len() int { return q.size }

// Space returns the number of free slots.
func (q *Queue) Space() int { return len(q.buf) - q.size }

// Empty reports whether the queue holds no tokens.
func (q *Queue) Empty() bool { return q.size == 0 }

// Full reports whether the queue has no free slots.
func (q *Queue) Full() bool { return q.size == len(q.buf) }

// SetEdgeHook registers f to observe full-state transitions: f(true) when
// an enqueue fills the last slot, f(false) when a dequeue (or Reset) first
// makes space again. Invocations strictly alternate true/false per queue,
// starting with true; the hook runs after the state change, so occupancy
// reads from inside it see the post-transition queue.
func (q *Queue) SetEdgeHook(f func(full bool)) { q.edge = f }

// Enq appends a token. It returns false (and counts a full event) when the
// queue is full.
func (q *Queue) Enq(t Token) bool {
	if q.size == len(q.buf) {
		q.FullEvts++
		return false
	}
	q.buf[q.slot(q.size)] = t
	q.size++
	q.Enqueued++
	if q.occ != nil {
		*q.occ++
	}
	if q.edge != nil && q.size == len(q.buf) {
		q.edge(true)
	}
	return true
}

// Deq removes and returns the oldest token. ok is false when the queue is
// empty.
func (q *Queue) Deq() (t Token, ok bool) {
	if q.size == 0 {
		return Token{}, false
	}
	wasFull := q.size == len(q.buf)
	t = q.buf[q.head]
	q.head = q.slot(1)
	q.size--
	q.Dequeued++
	if q.occ != nil {
		*q.occ--
	}
	if wasFull && q.edge != nil {
		q.edge(false)
	}
	return t, true
}

// Peek returns the oldest token without removing it.
func (q *Queue) Peek() (t Token, ok bool) {
	if q.size == 0 {
		return Token{}, false
	}
	return q.buf[q.head], true
}

// PeekAt returns the i-th oldest token (0 = head) without removing it.
func (q *Queue) PeekAt(i int) (t Token, ok bool) {
	if i < 0 || i >= q.size {
		return Token{}, false
	}
	return q.buf[q.slot(i)], true
}

// slot returns the ring index i positions past head, for 0 <= i <= Cap().
// Wrapping by compare-and-subtract instead of % keeps a 64-bit division off
// every enqueue, dequeue and peek.
func (q *Queue) slot(i int) int {
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return j
}

// Reset discards buffered tokens but keeps capacity and statistics. A full
// queue reports the trailing (ready) stall edge so edge alternation
// survives a reset.
func (q *Queue) Reset() {
	wasFull := q.size == len(q.buf)
	if q.occ != nil {
		*q.occ -= q.size
	}
	q.head, q.size = 0, 0
	if wasFull && q.edge != nil {
		q.edge(false)
	}
}
