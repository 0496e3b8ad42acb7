package simnet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/transport"
)

// sendBurst enqueues n same-timestamp deliveries from distinct sources,
// so every one of them is admissible at the decision point.
func sendBurst(n *Network, dst transport.Addr, count int) {
	for i := 0; i < count; i++ {
		n.Send(transport.Addr(fmt.Sprintf("s%02d", i)), dst, []byte(fmt.Sprintf("%d", i)))
	}
}

func deliveryOrder(n *Network, dst transport.Addr) *[]string {
	order := &[]string{}
	n.Register(dst, func(n transport.Transport, m transport.Message) { *order = append(*order, string(m.Payload)) })
	return order
}

func TestSeededSchedulerPermutesSameTimestampDeliveries(t *testing.T) {
	canonical := New(1)
	co := deliveryOrder(canonical, "b")
	sendBurst(canonical, "b", 10)
	canonical.Run()

	permuted := New(1)
	po := deliveryOrder(permuted, "b")
	permuted.SetScheduler(NewSeededScheduler(42))
	sendBurst(permuted, "b", 10)
	permuted.Run()

	if len(*po) != 10 {
		t.Fatalf("permuted run delivered %d of 10", len(*po))
	}
	if reflect.DeepEqual(*co, *po) {
		t.Fatalf("seeded scheduler left the canonical order %v intact", *co)
	}
	seen := map[string]bool{}
	for _, s := range *po {
		seen[s] = true
	}
	if len(seen) != 10 {
		t.Fatalf("permutation lost or duplicated deliveries: %v", *po)
	}
}

func TestSeededSchedulerIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) ([]string, ScheduleTrace) {
		n := New(1)
		o := deliveryOrder(n, "b")
		n.SetScheduler(NewSeededScheduler(seed))
		sendBurst(n, "b", 8)
		n.Run()
		return *o, n.RecordedSchedule()
	}
	o1, t1 := run(7)
	o2, t2 := run(7)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(t1, t2) {
		t.Fatalf("same seed diverged: %v vs %v (traces %v vs %v)", o1, o2, t1, t2)
	}
	o3, _ := run(8)
	if reflect.DeepEqual(o1, o3) {
		t.Errorf("seeds 7 and 8 produced the same order %v", o1)
	}
}

func TestSchedulerPreservesPerLinkFIFO(t *testing.T) {
	n := New(1)
	var fromA, fromB []string
	n.Register("dst", func(n transport.Transport, m transport.Message) {
		if m.Src == "a" {
			fromA = append(fromA, string(m.Payload))
		} else {
			fromB = append(fromB, string(m.Payload))
		}
	})
	n.SetScheduler(NewSeededScheduler(3))
	for i := 0; i < 6; i++ {
		n.Send("a", "dst", []byte(fmt.Sprintf("a%d", i)))
		n.Send("b", "dst", []byte(fmt.Sprintf("b%d", i)))
	}
	n.Run()
	for i := range fromA {
		if fromA[i] != fmt.Sprintf("a%d", i) || fromB[i] != fmt.Sprintf("b%d", i) {
			t.Fatalf("per-link FIFO violated: a=%v b=%v", fromA, fromB)
		}
	}
}

func TestSchedulerPreservesPerOwnerTimerOrder(t *testing.T) {
	n := New(1)
	var fired []string
	n.Register("node", func(n transport.Transport, m transport.Message) {
		// Two timers armed by the same node at the same deadline must
		// keep arming order under any scheduler.
		n.After(5*time.Millisecond, func() { fired = append(fired, "first") })
		n.After(5*time.Millisecond, func() { fired = append(fired, "second") })
	})
	n.SetScheduler(NewSeededScheduler(11))
	n.Send("src", "node", []byte("go"))
	n.Run()
	if !reflect.DeepEqual(fired, []string{"first", "second"}) {
		t.Fatalf("same-owner timers fired out of order: %v", fired)
	}
}

func TestReplayScheduleReproducesPermutedRun(t *testing.T) {
	recorded := New(1)
	ro := deliveryOrder(recorded, "b")
	recorded.SetScheduler(NewSeededScheduler(99))
	sendBurst(recorded, "b", 10)
	recorded.Run()
	trace := recorded.RecordedSchedule()
	if len(trace) == 0 {
		t.Fatal("no decisions recorded for a 10-way burst")
	}

	replayed := New(1)
	po := deliveryOrder(replayed, "b")
	replayed.ReplaySchedule(trace)
	sendBurst(replayed, "b", 10)
	replayed.Run()
	if !reflect.DeepEqual(*ro, *po) {
		t.Fatalf("replay diverged: recorded %v, replayed %v", *ro, *po)
	}
	if got := replayed.RecordedSchedule(); !reflect.DeepEqual(got, trace) {
		t.Errorf("replayed recording is not the normalized trace: %v vs %v", got, trace)
	}
}

func TestReplayExhaustedFallsBackToCanonical(t *testing.T) {
	canonical := New(1)
	co := deliveryOrder(canonical, "b")
	sendBurst(canonical, "b", 6)
	canonical.Run()

	n := New(1)
	o := deliveryOrder(n, "b")
	n.ReplaySchedule(ScheduleTrace{}) // empty: every decision canonical
	sendBurst(n, "b", 6)
	n.Run()
	if !reflect.DeepEqual(*co, *o) {
		t.Fatalf("empty replay differs from canonical: %v vs %v", *co, *o)
	}
}

func TestReplayClampsOutOfRangeChoices(t *testing.T) {
	n := New(1)
	o := deliveryOrder(n, "b")
	n.ReplaySchedule(ScheduleTrace{99, -3, 99, 99, 99})
	sendBurst(n, "b", 4)
	n.Run()
	if len(*o) != 4 {
		t.Fatalf("clamped replay delivered %d of 4", len(*o))
	}
	if got := (*o)[0]; got != "0" {
		t.Errorf("out-of-range picks should clamp to canonical 0, first delivery = %q", got)
	}
}

func TestSchedulerSeesCrashDeliveryRace(t *testing.T) {
	// A crash transition and a delivery at the same instant are in
	// different FIFO classes, so a scheduler can order them either way:
	// delivery-first lands the message, crash-first drops it.
	run := func(tr ScheduleTrace) (delivered uint64) {
		n := New(1)
		n.Register("b", func(n transport.Transport, m transport.Message) {})
		n.ApplyFaults(faults.NewPlan().Crash("b", 10*time.Millisecond, 0))
		n.Send("a", "b", []byte("race")) // arrives at exactly 10ms
		n.ReplaySchedule(tr)
		return n.Run()
	}
	if got := run(ScheduleTrace{0}); got != 0 {
		t.Errorf("crash-first schedule delivered %d, want 0", got)
	}
	if got := run(ScheduleTrace{1}); got != 1 {
		t.Errorf("delivery-first schedule delivered %d, want 1", got)
	}
}

func TestSchedulerKeepsVirtualTimeMonotone(t *testing.T) {
	n := New(1)
	var times []time.Duration
	n.Register("b", func(n transport.Transport, m transport.Message) { times = append(times, n.Now()) })
	// The burst's links run 10ms (1ms plus a 9ms spike); "fast" runs 1ms.
	n.SetDefaultLink(Link{Latency: time.Millisecond})
	plan := faults.NewPlan()
	for i := 0; i < 8; i++ {
		plan.LatencySpike(transport.Addr(fmt.Sprintf("s%02d", i)), "b", 9*time.Millisecond, 0, 0)
	}
	n.ApplyFaults(plan)
	n.SetScheduler(NewSeededScheduler(5))
	sendBurst(n, "b", 8)
	n.Send("fast", "b", []byte("early"))
	n.Run()
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("virtual clock went backwards: %v", times)
		}
	}
	if times[0] != 1*time.Millisecond {
		t.Errorf("earliest event not delivered first: %v", times)
	}
}
