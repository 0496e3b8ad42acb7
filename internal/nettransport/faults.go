// Fault injection for the real loopback transport.
//
// The plan grammar lives in internal/faults; this file is nettransport's
// enforcement of it on a wall clock. Link faults (partition, burst loss,
// latency spike) are evaluated at the frame-codec boundary in SendTraced
// — the merged plan sits behind one atomic pointer the send path loads
// lock-free. Crash windows become wall-clock timers that take the node's
// endpoint down and bring it back up:
//
//   - Down: the listener closes, so new dials find a dead port; the
//     inbox is drained with every queued message counted as an
//     injected "crash" drop; the node's crash epoch advances,
//     cancelling owned timers armed before the crash.
//     Already-accepted TCP streams stay open — in-flight frames on them
//     die at delivery time instead, which keeps the pending-work
//     accounting exact (the simulator's analogue is dropping inbound to
//     a crashed node at its delivery event).
//   - Up: the recorded port is re-bound with capped-jittered backoff
//     (ports linger in TIME_WAIT and kernels take their time), and only
//     a successful rebind marks the node up — a node that cannot restart
//     stays down rather than half-up.
//
// Peers recover on their own: TCP writers re-dial with the same backoff
// policy and count a reconnect when a previously-established stream
// comes back.
package nettransport

import (
	"sort"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/transport"
)

var _ faults.Injector = (*Net)(nil)

// ApplyFaults overlays a plan on live traffic. Link faults take effect
// immediately (the send path window-queries the merged plan against the
// transport's elapsed clock); crash/restart transitions are armed as
// wall-clock timers relative to now, clamped to the present so applying
// a plan mid-run never schedules into the past. May be called
// repeatedly; plans merge.
func (t *Net) ApplyFaults(p *faults.Plan) {
	if p.Empty() {
		return
	}
	t.transMu.Lock()
	merged := faults.NewPlan().Merge(t.plan.Load()).Merge(p)
	t.plan.Store(merged)
	t.transMu.Unlock()
	now := t.Now()
	for _, f := range p.Faults() {
		if f.Kind != faults.FaultCrash {
			continue
		}
		for _, addr := range t.expandNodes(f.Node) {
			addr := addr
			time.AfterFunc(max(0, f.From-now), func() { t.transition(addr, true) })
			if f.Until > 0 {
				time.AfterFunc(max(0, f.Until-now), func() { t.transition(addr, false) })
			}
		}
	}
}

// expandNodes resolves a node pattern against registered nodes, sorted
// for deterministic transition order.
func (t *Net) expandNodes(pat transport.Addr) []transport.Addr {
	if pat != faults.Wildcard {
		return []transport.Addr{pat}
	}
	t.mu.Lock()
	addrs := make([]transport.Addr, 0, len(t.nodes))
	for a := range t.nodes {
		addrs = append(addrs, a)
	}
	t.mu.Unlock()
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// transition flips one node's crash state. Serialized under transMu
// against other transitions and against Close, which is what lets a
// restart add an acceptor goroutine without racing wg.Wait.
func (t *Net) transition(addr transport.Addr, down bool) {
	t.transMu.Lock()
	defer t.transMu.Unlock()
	if t.closed.Load() {
		return
	}
	t.mu.Lock()
	n := t.nodes[addr]
	t.mu.Unlock()
	if n == nil || n.down.Load() == down {
		return
	}
	if down {
		// Epoch first: a timer arming concurrently either sees down and
		// skips, or captures the old epoch and is cancelled at fire time.
		n.epoch.Add(1)
		n.down.Store(true)
		n.endpointMu.Lock()
		if n.tcpLn != nil {
			n.tcpLn.Close()
			n.tcpLn = nil
		}
		n.endpointMu.Unlock()
		t.drainInbox(n)
		return
	}
	// Restart: rebind the recorded endpoint so peers' dial targets stay
	// valid, with backoff for ports the kernel has not released yet.
	n.endpointMu.Lock()
	target := n.dialTo
	n.endpointMu.Unlock()
	seed := uint64(t.opts.Seed) ^ 0xbd // decorrelate from writer dials
	for attempt := 0; attempt < dialRetry.MaxAttempts; attempt++ {
		if attempt > 0 && !t.sleepOrStop(dialRetry.Backoff(seed, attempt)) {
			return
		}
		if t.bind(n, target) == nil {
			n.down.Store(false)
			return
		}
	}
	// Rebind exhausted: the node stays down (sends keep failing with
	// ErrNodeDown) rather than flapping half-up with no endpoint.
}

// drainInbox empties a freshly-crashed node's queue: queued datagrams
// are injected "crash" drops, queued timers are cancelled outright
// (unless a stop already claimed them). The dispatcher may be draining
// concurrently; it applies the same rules.
func (t *Net) drainInbox(n *node) {
	for {
		select {
		case <-n.inbox.ready:
			if it := n.inbox.take(); it.tm != nil {
				if it.tm.claim() {
					t.finish(1)
				}
			} else {
				t.dropInjected(1, "crash")
			}
		default:
			return
		}
	}
}

// CrashedNow reports whether node is currently down (for tests;
// protocols should just observe Send errors).
func (t *Net) CrashedNow(addr transport.Addr) bool {
	t.mu.Lock()
	n := t.nodes[addr]
	t.mu.Unlock()
	return n != nil && n.isDown()
}

// FaultDrops returns the all-time count of frames dropped by injected
// faults (crashes, partitions, burst loss).
func (t *Net) FaultDrops() uint64 { return t.faultDrops.Load() }

// Shed returns the all-time count of frames shed under overload.
func (t *Net) Shed() uint64 { return t.shed.Load() }

// Reconnects returns the all-time count of writer streams re-established
// after a reset or a destination restart.
func (t *Net) Reconnects() uint64 { return t.reconnects.Load() }
