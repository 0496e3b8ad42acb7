// Schedule exploration for the deterministic simulator.
//
// The event loop's canonical order — virtual time, then FIFO seq — is
// ONE admissible schedule out of many: events that share a timestamp
// could be delivered in any order the real network might exhibit, as
// long as causality survives. A Scheduler picks among those admissible
// orders; a seeded scheduler turns the simulator into a schedule
// explorer (FoundationDB-style simulation testing), and a recorded
// ScheduleTrace makes any explored schedule replayable bit-for-bit.
//
// Admissibility rules, enforced by the Network (never delegated to the
// scheduler):
//
//   - Virtual time is monotone: only events at the earliest queued
//     timestamp are ready.
//   - FIFO per link: two deliveries on the same directed (src, dst)
//     link keep their send order.
//   - FIFO per timer owner: two timers armed by the same node (or both
//     armed from outside the loop, owner "") keep their arming order.
//     This covers crash/restart transitions, which are owner-"" timers:
//     a crash may be reordered against a same-time delivery — exactly
//     the race worth exploring — but never against its own restart.
//
// Every decision point with more than one admissible event is recorded
// as the index chosen (in canonical seq order of the admissible set),
// so a ScheduleTrace is a compact, position-addressed replay script: an
// empty trace (or any exhausted/out-of-range entry) falls back to the
// canonical choice 0, which is what makes traces shrinkable by
// truncation and zeroing.
package simnet

import (
	"math/rand"

	"decoupling/internal/transport"
)

// EventMeta describes one ready event to a Scheduler. Payload bytes are
// deliberately absent: schedulers see exactly what a network-level
// adversary could reorder on (endpoints, sizes, arming order).
type EventMeta struct {
	// Seq is the event's global FIFO sequence number.
	Seq uint64
	// Timer is true for After-armed callbacks (including fault
	// transitions), false for datagram deliveries.
	Timer bool
	// Owner is the timer's owning node ("" for timers armed outside the
	// event loop); empty for deliveries.
	Owner transport.Addr
	// Src and Dst are the delivery endpoints; empty for timers.
	Src, Dst transport.Addr
	// Size is the delivery's payload length in bytes (0 for timers).
	Size int
}

// Scheduler picks which admissible ready event the loop runs next.
// ready is the admissible subset of the earliest-timestamp events, in
// canonical (seq) order and always non-empty; Pick returns an index
// into it. Out-of-range picks are clamped to 0 (the canonical choice).
// Schedulers run on the event-loop goroutine and must be deterministic
// for reproducibility.
type Scheduler interface {
	Pick(ready []EventMeta) int
}

// ScheduleTrace is a recorded sequence of scheduling decisions: one
// entry per decision point that had more than one admissible event,
// holding the index picked. It is both the artifact a recorded run
// yields and the script a replayed run consumes.
type ScheduleTrace []int

// seededScheduler permutes admissible events uniformly with its own
// RNG, kept separate from the network's RNG so schedule choices never
// perturb loss or jitter draws.
type seededScheduler struct{ rng *rand.Rand }

func (s *seededScheduler) Pick(ready []EventMeta) int { return s.rng.Intn(len(ready)) }

// NewSeededScheduler returns a scheduler that picks uniformly among
// admissible events using its own deterministic stream. Same seed, same
// schedule.
func NewSeededScheduler(seed uint64) Scheduler {
	return &seededScheduler{rng: rand.New(rand.NewSource(int64(seed)))}
}

// SetScheduler installs a scheduler for subsequent Run/RunUntil calls
// (nil restores the canonical FIFO order). Decision points with more
// than one admissible event are recorded; fetch the recording with
// RecordedSchedule.
func (n *Network) SetScheduler(s Scheduler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sched = s
}

// ReplaySchedule forces the loop to repeat a recorded trace: decision
// point i picks trace[i] (clamped to the admissible set; canonical 0
// once the trace is exhausted). Replay takes precedence over any
// installed Scheduler and is itself re-recorded, so the recording of a
// replayed run is the normalized trace. An empty (or nil) trace is a
// valid script — every decision goes canonical — and still records, so
// replaying a replay is always a fixpoint.
func (n *Network) ReplaySchedule(t ScheduleTrace) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.replay = append(make(ScheduleTrace, 0, len(t)), t...)
	n.replayPos = 0
}

// RecordedSchedule returns the decisions recorded so far (one entry per
// multi-choice decision point since construction).
func (n *Network) RecordedSchedule() ScheduleTrace {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append(ScheduleTrace(nil), n.schedTrace...)
}

// meta renders an event for a scheduling decision.
func (e *event) meta() EventMeta {
	m := EventMeta{Seq: e.seq}
	if e.deliver != nil {
		m.Src, m.Dst, m.Size = e.deliver.Src, e.deliver.Dst, len(e.deliver.Payload)
	} else {
		m.Timer = true
		m.Owner = e.owner
	}
	return m
}

// fifoKey is the FIFO class an event must stay ordered within.
type fifoKey struct {
	timer bool
	a, b  transport.Addr
}

func (e *event) fifoClass() fifoKey {
	if e.deliver != nil {
		return fifoKey{a: e.deliver.Src, b: e.deliver.Dst}
	}
	return fifoKey{timer: true, a: e.owner}
}

// popNextLocked removes and returns the next event to run, honoring the
// installed scheduler or replay trace. With neither installed (the
// default), it is exactly the canonical heap pop. Called with n.mu
// held.
func (n *Network) popNextLocked() *event {
	if (n.sched == nil && n.replay == nil) || len(n.queue) < 2 {
		return n.popCanonicalLocked()
	}
	// Gather every event at the earliest timestamp, in canonical order
	// (repeated heap pops yield ascending (at, seq)).
	t := n.queue[0].at
	var ready []*event
	for len(n.queue) > 0 && n.queue[0].at == t {
		ready = append(ready, n.popCanonicalLocked())
	}
	choice := 0
	if len(ready) > 1 {
		// Admissible events: no earlier event in the same FIFO class.
		seen := map[fifoKey]bool{}
		var adm []int
		metas := make([]EventMeta, 0, len(ready))
		for i, e := range ready {
			k := e.fifoClass()
			if !seen[k] {
				seen[k] = true
				adm = append(adm, i)
				metas = append(metas, e.meta())
			}
		}
		pick := 0
		if len(adm) > 1 {
			switch {
			case n.replay != nil:
				if n.replayPos < len(n.replay) {
					pick = n.replay[n.replayPos]
				}
				n.replayPos++
			default:
				pick = n.sched.Pick(metas)
			}
			if pick < 0 || pick >= len(adm) {
				pick = 0
			}
			n.schedTrace = append(n.schedTrace, pick)
		}
		choice = adm[pick]
	}
	e := ready[choice]
	// Everything not chosen goes back on the queue untouched; their seq
	// numbers keep the canonical order stable for the next decision.
	for i, o := range ready {
		if i != choice {
			n.pushLocked(o)
		}
	}
	return e
}

// popCanonicalLocked pops the canonical (earliest, lowest-seq) event.
func (n *Network) popCanonicalLocked() *event { return heapPop(&n.queue) }
