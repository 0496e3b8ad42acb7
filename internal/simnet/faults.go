// Fault injection for the deterministic simulator.
//
// The fault-plan grammar (kinds, windows, the Spec round-trip, named
// plans) lives in the transport-neutral internal/faults package; this
// file holds only the simulator-side enforcement that is genuinely
// simnet's: scheduling crash transitions as queue events on the
// virtual clock, cancelling a crashed node's timers, and dropping
// faulted datagrams with counted reasons.
//
// Determinism rules for fault plans on simnet:
//
//   - Windows are half-open [From, Until) in VIRTUAL time; Until <= 0
//     means the fault never clears.
//   - Crash and restart transitions are scheduled as ordinary queue
//     events when ApplyFaults is called, so their ordering against
//     same-timestamp deliveries follows the queue's FIFO seq tiebreak:
//     apply the plan before sending and the crash wins; the reverse
//     order lets the in-flight delivery land first.
//   - Link faults (partition, loss, spike) are evaluated at Send time
//     from the sender's virtual clock. Loss draws from the
//     deterministic faults.LossDraw stream keyed per directed link —
//     not from the network RNG — so the same plan drops the same
//     datagrams on the real transport. It is the simulator's only loss
//     model, counted under Lost but not FaultDrops.
//
// Crashed nodes drop inbound datagrams (counted as fault drops), refuse
// new sends with faults.ErrNodeDown, and have their pending After timers
// cancelled — a mix's batch-timeout flush does not survive its crash,
// though the next batch arms a timeout of its own.
package simnet

import (
	"container/heap"
	"sort"

	"decoupling/internal/faults"
	"decoupling/internal/transport"
)

// ApplyFaults overlays a plan on the network. Link faults take effect
// immediately (window queries at Send time); crash/restart transitions
// are pushed onto the event queue NOW, which fixes their FIFO order
// relative to any same-timestamp delivery: transitions applied before a
// send precede it. Wildcard crashes expand over the currently
// registered nodes in sorted order. May be called repeatedly; plans
// merge.
func (n *Network) ApplyFaults(p *faults.Plan) {
	if p.Empty() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.plan == nil {
		n.plan = faults.NewPlan()
	}
	n.plan.Merge(p)
	for _, f := range p.Faults() {
		if f.Kind != faults.FaultCrash {
			continue
		}
		for _, node := range n.expandLocked(f.Node) {
			node := node
			// Clamp to the present: applying a plan mid-run must never
			// rewind the virtual clock.
			down, up := max(f.From, n.now), max(f.Until, n.now)
			n.seq++
			heap.Push(&n.queue, &event{at: down, seq: n.seq, fire: func() { n.setCrashed(node, true) }})
			if f.Until > 0 {
				n.seq++
				heap.Push(&n.queue, &event{at: up, seq: n.seq, fire: func() { n.setCrashed(node, false) }})
			}
		}
	}
}

// expandLocked resolves a node pattern against registered nodes.
func (n *Network) expandLocked(pat transport.Addr) []transport.Addr {
	if pat != faults.Wildcard {
		return []transport.Addr{pat}
	}
	nodes := make([]transport.Addr, 0, len(n.nodes))
	for a := range n.nodes {
		nodes = append(nodes, a)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// setCrashed flips a node's crash state. Crashing cancels the node's
// pending timers: a timer armed by a node that later dies must not fire
// after its owner is gone (a crashed mix does not flush its batch).
func (n *Network) setCrashed(node transport.Addr, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed == nil {
		n.crashed = map[transport.Addr]bool{}
	}
	n.crashed[node] = down
	if down {
		for _, e := range n.queue {
			if e.fire != nil && e.owner == node {
				e.cancelled = true
			}
		}
	}
}

// CrashedNow reports whether node is currently down (for tests and
// example programs; protocols should just observe Send errors).
func (n *Network) CrashedNow(node transport.Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[node]
}

// FaultDrops returns the all-time count of datagrams dropped by
// injected faults (crashes and partitions; burst loss counts only under
// Lost).
func (n *Network) FaultDrops() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faultDrops
}
