package nettransport

import "sync"

// fifoReuse is the ring size a queue keeps once it drains; the storage
// of a larger backlog is freed, so a burst's memory goes with it.
const fifoReuse = 64

// fifo is a bounded FIFO whose storage grows with its backlog, not its
// bound: a queue of depth 4096 that never holds more than a few items
// costs a few slots. Two channels of zero-size elements carry the bound
// and the readiness, so producers and the consumer keep select-ing on
// channels (against a stop, a timer, or a default) as they would on a
// buffered channel of T; neither channel has a buffer, whatever its
// capacity. The items live in a ring that doubles when full.
//
// A producer sends a slots token (blocking, or losing its select, at
// depth) and then calls put; the consumer receives a ready token and
// then calls take. Items come out in put order, so each producer's
// items stay in its order.
type fifo[T any] struct {
	slots chan struct{} // one token per item queued or being put
	ready chan struct{} // one token per item put and not yet taken

	mu   sync.Mutex
	buf  []T
	head int
	n    int
}

func newFIFO[T any](depth int) *fifo[T] {
	return &fifo[T]{slots: make(chan struct{}, depth), ready: make(chan struct{}, depth)}
}

// put appends v. The caller holds a slots token; the ready token it
// gives never blocks, since ready never holds more tokens than slots.
func (q *fifo[T]) put(v T) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
	q.mu.Unlock()
	q.ready <- struct{}{}
}

// take removes the oldest item and returns its slots token. The caller
// holds a ready token, so there is one.
func (q *fifo[T]) take() T {
	q.mu.Lock()
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release what the item references
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	if q.n--; q.n == 0 && len(q.buf) > fifoReuse {
		q.buf, q.head = nil, 0
	}
	q.mu.Unlock()
	<-q.slots
	return v
}
