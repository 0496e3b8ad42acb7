package nettransport

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"decoupling/internal/transport"
)

// TestFIFOOrderAcrossWrapAndGrowth moves the ring's head off zero,
// wraps its tail past the end, then grows the ring while it is wrapped,
// at every size from 8 to 512: items must come out in put order.
func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	q := newFIFO[int](1 << 10)
	var put, took int
	puts := func(k int) {
		for ; k > 0; k-- {
			q.slots <- struct{}{}
			q.put(put)
			put++
		}
	}
	takes := func(k int) {
		for ; k > 0; k-- {
			<-q.ready
			if got := q.take(); got != took {
				t.Fatalf("took %d, want %d", got, took)
			}
			took++
		}
	}
	puts(5)
	for size := 8; size <= 512; size *= 2 {
		takes(q.n - 1)
		puts(size - 1)
		if len(q.buf) != size || q.n != size || q.head == 0 {
			t.Fatalf("ring len %d, %d items, head %d: want a full, wrapped ring of %d", len(q.buf), q.n, q.head, size)
		}
		puts(1)
		if len(q.buf) != 2*size {
			t.Fatalf("ring len %d after a put to a full ring of %d, want %d", len(q.buf), size, 2*size)
		}
	}
	takes(put - took)
	if len(q.ready) != 0 || q.n != 0 {
		t.Fatalf("%d ready, %d held after taking all %d", len(q.ready), q.n, put)
	}
}

// TestFIFOPutBlocksAtDepth checks the bound: depth puts go through
// without blocking, the next blocks until a take frees its slot.
func TestFIFOPutBlocksAtDepth(t *testing.T) {
	const depth = 4
	q := newFIFO[int](depth)
	for i := 0; i < depth; i++ {
		select {
		case q.slots <- struct{}{}:
			q.put(i)
		default:
			t.Fatalf("put %d refused below depth %d", i, depth)
		}
	}
	select {
	case q.slots <- struct{}{}:
		t.Fatalf("slot %d granted at depth %d", depth, depth)
	default:
	}
	done := make(chan struct{})
	go func() {
		q.slots <- struct{}{}
		q.put(depth)
		close(done)
	}()
	select {
	case <-done:
		t.Fatalf("put %d went through at depth %d", depth, depth)
	case <-time.After(20 * time.Millisecond):
	}
	for want := 0; want <= depth; want++ {
		<-q.ready
		if got := q.take(); got != want {
			t.Fatalf("took %d, want %d", got, want)
		}
		if want == 0 {
			<-done // the blocked put goes through once a take frees a slot
		}
	}
}

// TestFIFOFreesDrainedBacklog checks that storage follows the backlog:
// a drained ring of the reuse size is kept with every slot cleared and
// serves the next backlog without allocating, and a drained larger one
// is freed.
func TestFIFOFreesDrainedBacklog(t *testing.T) {
	q := newFIFO[*int](1 << 12)
	x := new(int)
	cycle := func(k int) {
		for i := 0; i < k; i++ {
			q.slots <- struct{}{}
			q.put(x)
		}
		for i := 0; i < k; i++ {
			<-q.ready
			q.take()
		}
	}
	cycle(fifoReuse)
	if len(q.buf) != fifoReuse {
		t.Fatalf("drained backlog of %d left a ring of %d, want it kept", fifoReuse, len(q.buf))
	}
	for i, v := range q.buf {
		if v != nil {
			t.Fatalf("slot %d still references a taken item", i)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { cycle(fifoReuse) }); allocs != 0 {
		t.Fatalf("a backlog of %d in the kept ring cost %v allocations, want 0", fifoReuse, allocs)
	}
	cycle(fifoReuse + 1)
	if q.buf != nil {
		t.Fatalf("drained backlog of %d left a ring of %d, want it freed", fifoReuse+1, len(q.buf))
	}
}

// TestQueuesAllocateWithBacklog is the transport-level check that a
// queue's depth is a bound, not an allocation: four nodes with
// 65,536-deep inboxes and writer queues, sent one message each, may
// grow the live heap by at most 1 MB (queues allocated at their depth
// hold ~32 MB here). It must not run in parallel: the heap is the
// process's.
func TestQueuesAllocateWithBacklog(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	net := newTest(t, Options{InboxDepth: 1 << 16, OutDepth: 1 << 16, DisableCapture: true})
	var sinks [4]sink
	for i := range sinks {
		net.Register(transport.Addr(fmt.Sprintf("n%d", i)), sinks[i].handle)
	}
	for i := range sinks {
		if err := net.Send("src", transport.Addr(fmt.Sprintf("n%d", i)), []byte("x")); err != nil {
			t.Fatalf("Send to n%d: %v", i, err)
		}
	}
	net.Run()
	if got := net.Delivered(); got != 4 {
		t.Fatalf("delivered %d, want 4", got)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(net)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("live heap grew %.1f MB for 4 nodes holding one message each, want <= 1 MB", float64(grew)/(1<<20))
	}
}
