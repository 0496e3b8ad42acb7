// Package simnet provides a deterministic in-process message network:
// named nodes exchange datagrams over links with configurable latency,
// driven by a virtual clock and a single event loop. Loss, partitions,
// crashes and latency spikes come only from a fault plan
// (internal/faults; see ApplyFaults).
//
// Two properties make it the right substrate for this reproduction:
//
//   - Determinism: same seed, same schedule, bit-for-bit — experiments
//     and property tests are reproducible.
//   - A global passive observer: every delivery is captured as
//     (time, src, dst, size) metadata, exactly the vantage point of the
//     paper's §4.3 traffic-analysis adversary and the source of truth
//     for which network identities each entity exposes.
//
// simnet models an unreliable-order, reliable-delivery datagram service;
// protocols needing streams (the HTTP-based systems) use real loopback
// TCP instead and are exercised in their own packages.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
	"decoupling/internal/transport"
)

// Network implements the full experiment-facing transport contract,
// in the vocabulary (transport.Addr, Message, Handler, PacketRecord)
// every transport implementation shares.
var _ transport.Runner = (*Network)(nil)
var _ transport.ContextSender = (*Network)(nil)

// Link describes delivery characteristics between nodes.
type Link struct {
	Latency time.Duration
}

type event struct {
	at      time.Duration
	seq     uint64 // FIFO tiebreak for equal timestamps
	deliver *transport.Message
	fire    func()

	// owner is the node whose handler armed this timer ("" for timers
	// set from outside the event loop); cancelled marks timers whose
	// owner crashed before they fired.
	owner     transport.Addr
	cancelled bool

	// sentAt is the virtual send time; the latency histogram reads it
	// at delivery.
	sentAt time.Duration

	// index is the event's position in the queue, -1 once popped; a
	// timer's stop removes it from there.
	index int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Network is a deterministic simulated network. Construct with New;
// methods are safe to call from handlers (which run on the event loop)
// and from the test goroutine between Run calls.
type Network struct {
	mu        sync.Mutex
	now       time.Duration
	seq       uint64
	seed      int64
	rng       *rand.Rand
	nodes     map[transport.Addr]transport.Handler
	link      Link
	queue     eventQueue
	capture   []transport.PacketRecord
	delivered uint64
	lost      uint64

	// Fault-injection state (see faults.go): the merged plan, the set of
	// currently crashed nodes, drops attributable to faults, and the
	// node whose handler is executing (so After can attribute timers).
	plan       *faults.Plan
	crashed    map[transport.Addr]bool
	faultDrops uint64
	lossSeq    map[[2]transport.Addr]uint64
	running    transport.Addr

	// tel is the optional telemetry sink. When nil (the default) the
	// hot paths pay exactly one pointer check.
	tel *telemetry.Telemetry

	// Schedule-exploration state (see sched.go): the installed
	// scheduler, the replay script and its cursor, and the decisions
	// recorded so far. All nil/zero in the canonical FIFO mode.
	sched      Scheduler
	replay     ScheduleTrace
	replayPos  int
	schedTrace ScheduleTrace
}

// heapPop pops the earliest (at, seq) event.
func heapPop(q *eventQueue) *event { return heap.Pop(q).(*event) }

// pushLocked re-queues an event without consuming a new seq.
func (n *Network) pushLocked(e *event) { heap.Push(&n.queue, e) }

// New creates a network with the given RNG seed and a default link
// latency of 10ms.
func New(seed int64) *Network {
	return &Network{
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		nodes: map[transport.Addr]transport.Handler{},
		link:  Link{Latency: 10 * time.Millisecond},
	}
}

// Instrument attaches a telemetry sink: every delivery feeds the
// per-link message/byte counters and the virtual latency histogram,
// and fault drops feed the loss counters. Spans are the wire-trace
// plane's job (SendTraced). Call before Run; a nil tel is a no-op.
func (n *Network) Instrument(tel *telemetry.Telemetry) {
	n.mu.Lock()
	n.tel = tel
	n.mu.Unlock()
}

// SetDefaultLink sets the link profile every pair of nodes uses.
func (n *Network) SetDefaultLink(l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.link = l
}

// Register attaches a handler to addr, creating the node. Registering
// an existing address replaces its handler.
func (n *Network) Register(addr transport.Addr, h transport.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[addr] = h
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// Rand returns a deterministic pseudo-random int in [0, max). It is the
// only sanctioned randomness source for protocol simulations that need
// reproducibility (shuffles, chaff schedules).
func (n *Network) Rand(max int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Intn(max)
}

// Send enqueues a datagram from src to dst, to be delivered after the
// link's latency (+ any active latency spike). Sends to or
// from a crashed node fail fast with an error wrapping ErrNodeDown;
// partitions and loss drop silently, as the wire would.
func (n *Network) Send(src, dst transport.Addr, payload []byte) error {
	return n.SendTraced(src, dst, payload, wiretrace.Context{})
}

// SendTraced is Send with a wire-trace context riding on the simulated
// datagram — the simulator's equivalent of the real transport's frame
// trace extension. The context is out-of-band: payload bytes, link
// faults, and scheduling are identical whether or not it is present.
func (n *Network) SendTraced(src, dst transport.Addr, payload []byte, ctx wiretrace.Context) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[dst]; !ok {
		return fmt.Errorf("simnet: send to unregistered node %q", dst)
	}
	if n.crashed[dst] {
		n.dropLocked("crash", src, dst)
		return fmt.Errorf("simnet: send %s->%s: %w", src, dst, faults.ErrNodeDown)
	}
	if n.crashed[src] {
		return fmt.Errorf("simnet: send %s->%s: source %w", src, dst, faults.ErrNodeDown)
	}
	if n.plan.PartitionedAt(src, dst, n.now) {
		n.dropLocked("partition", src, dst)
		return nil // partitions are silent: only timeouts notice
	}
	// A fault plan's loss draws from the deterministic per-link
	// faults.LossDraw stream — shared with nettransport, so the same
	// plan + seed drop the same datagrams on either transport. The draw
	// happens only while the plan gives the link a positive loss.
	if burst := n.plan.LossAt(src, dst, n.now); burst > 0 {
		if n.lossSeq == nil {
			n.lossSeq = map[[2]transport.Addr]uint64{}
		}
		seq := n.lossSeq[[2]transport.Addr{src, dst}]
		n.lossSeq[[2]transport.Addr{src, dst}] = seq + 1
		if faults.LossDraw(n.seed, src, dst, seq) < burst {
			n.lost++
			if n.tel != nil {
				n.tel.Count(telemetry.MetricSimnetLost, "Datagrams dropped by link loss.", 1,
					telemetry.A("src", string(src)), telemetry.A("dst", string(dst)))
			}
			return nil // silently dropped, as the wire would
		}
	}
	delay := n.link.Latency + n.plan.SpikeAt(src, dst, n.now)
	msg := &transport.Message{Src: src, Dst: dst, Payload: append([]byte(nil), payload...), Trace: ctx}
	n.seq++
	heap.Push(&n.queue, &event{at: n.now + delay, seq: n.seq, deliver: msg, sentAt: n.now})
	return nil
}

// dropLocked accounts one fault-caused drop. Fault drops also count
// under lost so the simnet_lost counter and retry logic agree on what
// the network ate.
func (n *Network) dropLocked(reason string, src, dst transport.Addr) {
	n.lost++
	n.faultDrops++
	if n.tel != nil {
		n.tel.Count(telemetry.MetricSimnetFaultDrops, "Datagrams dropped by injected faults.", 1,
			telemetry.A("reason", reason), telemetry.A("src", string(src)), telemetry.A("dst", string(dst)))
		n.tel.Count(telemetry.MetricSimnetLost, "Datagrams dropped by link loss.", 1,
			telemetry.A("src", string(src)), telemetry.A("dst", string(dst)))
	}
}

// After schedules fn to run on the event loop after delay. It models
// node-local timers (mix batch timeouts, chaff generators). A timer
// armed from inside a node's handler belongs to that node and dies with
// it if the node crashes before the timer fires. stop removes the
// timer's event from the queue, so a stopped timer never fires, never
// advances the clock and never reaches a Scheduler; it returns false
// once the event has left the queue.
func (n *Network) After(delay time.Duration, fn func()) (stop func() bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	e := &event{at: n.now + delay, seq: n.seq, fire: fn, owner: n.running}
	heap.Push(&n.queue, e)
	return func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		if e.index < 0 {
			return false
		}
		heap.Remove(&n.queue, e.index)
		return true
	}
}

// Run processes events until the queue drains, returning the number of
// messages delivered. Timer-only events do not count as deliveries.
func (n *Network) Run() uint64 {
	return n.RunUntil(-1)
}

// RunUntil processes events with timestamps <= deadline (all events if
// deadline < 0), returning messages delivered during this call.
func (n *Network) RunUntil(deadline time.Duration) uint64 {
	var delivered uint64
	for {
		n.mu.Lock()
		if len(n.queue) == 0 || (deadline >= 0 && n.queue[0].at > deadline) {
			if deadline >= 0 && deadline > n.now {
				n.now = deadline
			}
			n.running = ""
			n.mu.Unlock()
			return delivered
		}
		e := n.popNextLocked()
		n.now = e.at
		var h transport.Handler
		var msg transport.Message
		tel := n.tel
		fire := e.fire
		if fire != nil && e.cancelled {
			fire = nil // owner crashed before the timer fired
		}
		if e.deliver != nil {
			msg = *e.deliver
			if n.crashed[msg.Dst] {
				// Crashed nodes drop inbound datagrams on arrival: the
				// packet made it across the wire but nobody is listening.
				n.dropLocked("crash", msg.Src, msg.Dst)
				n.mu.Unlock()
				continue
			}
			h = n.nodes[msg.Dst]
			n.capture = append(n.capture, transport.PacketRecord{
				Time: e.at, Src: msg.Src, Dst: msg.Dst, Size: len(msg.Payload),
			})
			n.delivered++
			delivered++
			n.running = msg.Dst
		} else {
			n.running = e.owner
		}
		n.mu.Unlock()

		// Run callbacks outside the lock so they can call Send/After.
		if fire != nil {
			fire()
		}
		if h != nil {
			if tel != nil {
				src, dst := telemetry.A("src", string(msg.Src)), telemetry.A("dst", string(msg.Dst))
				tel.Count(telemetry.MetricSimnetMessages, "Datagrams delivered per link.", 1, src, dst)
				tel.Count(telemetry.MetricSimnetBytes, "Payload bytes delivered per link.", uint64(len(msg.Payload)), src, dst)
				tel.Observe(telemetry.MetricSimnetLatency, "Virtual per-hop delivery latency.",
					telemetry.LatencyBuckets, (e.at - e.sentAt).Seconds(), src, dst)
			}
			h(n, msg)
		}
	}
}

// Capture returns a copy of the global observer's packet records.
func (n *Network) Capture() []transport.PacketRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]transport.PacketRecord(nil), n.capture...)
}

// Delivered returns the all-time count of delivered messages.
func (n *Network) Delivered() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered
}

// Lost returns the all-time count of messages dropped by a fault
// plan's link loss, crashes or partitions (FaultDrops breaks out the
// crash and partition share).
func (n *Network) Lost() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lost
}

// Pending reports the number of queued events (messages and timers).
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

// Close satisfies transport.Runner. The simulator holds no sockets or
// goroutines, so Close is a no-op: queued events stay queued and a
// later Run still drains them (tests rely on re-running a net).
func (n *Network) Close() error { return nil }
