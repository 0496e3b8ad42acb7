package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/transport"
)

// --- FaultPlan window queries ---------------------------------------

func TestCrashWindowIsHalfOpen(t *testing.T) {
	p := faults.NewPlan().Crash("m", 10*time.Millisecond, 20*time.Millisecond)
	cases := []struct {
		at   time.Duration
		want bool
	}{
		{9 * time.Millisecond, false},
		{10 * time.Millisecond, true}, // From is inclusive
		{19 * time.Millisecond, true},
		{20 * time.Millisecond, false}, // Until is exclusive
	}
	for _, c := range cases {
		if got := p.CrashedAt("m", c.at); got != c.want {
			t.Errorf("CrashedAt(m, %v) = %v, want %v", c.at, got, c.want)
		}
	}
	if p.CrashedAt("other", 15*time.Millisecond) {
		t.Error("crash window matched an unrelated node")
	}
}

func TestCrashWithoutRestartNeverClears(t *testing.T) {
	p := faults.NewPlan().Crash("m", 5*time.Millisecond, 0)
	if !p.CrashedAt("m", time.Hour) {
		t.Error("until<=0 crash cleared")
	}
	if p.CrashedAt("m", 4*time.Millisecond) {
		t.Error("crash active before From")
	}
}

func TestWildcardMatchesEveryNode(t *testing.T) {
	p := faults.NewPlan().
		Crash(faults.Wildcard, 0, 0).
		Loss(faults.Wildcard, faults.Wildcard, 0.5, 0, 0)
	if !p.CrashedAt("anything", time.Second) {
		t.Error("wildcard crash did not match")
	}
	if got := p.LossAt("a", "b", 0); got != 0.5 {
		t.Errorf("wildcard loss = %v", got)
	}
}

func TestLossAtTakesMaximum(t *testing.T) {
	p := faults.NewPlan().
		Loss("a", "b", 0.2, 0, 0).
		Loss(faults.Wildcard, "b", 0.7, 0, 0).
		Loss("a", "b", 0.4, 0, 0)
	if got := p.LossAt("a", "b", 0); got != 0.7 {
		t.Errorf("LossAt = %v, want max 0.7", got)
	}
}

func TestSpikeAtSumsOverlaps(t *testing.T) {
	p := faults.NewPlan().
		LatencySpike("a", "b", 10*time.Millisecond, 0, 0).
		LatencySpike("a", "b", 5*time.Millisecond, 0, 0)
	if got := p.SpikeAt("a", "b", 0); got != 15*time.Millisecond {
		t.Errorf("SpikeAt = %v, want 15ms", got)
	}
}

func TestNilPlanQueriesAreSafe(t *testing.T) {
	var p *faults.Plan
	if p.CrashedAt("a", 0) || p.PartitionedAt("a", "b", 0) ||
		p.LossAt("a", "b", 0) != 0 || p.SpikeAt("a", "b", 0) != 0 {
		t.Error("nil plan reported an active fault")
	}
	if !p.Empty() {
		t.Error("nil plan not Empty")
	}
	if p.Faults() != nil {
		t.Error("nil plan has faults")
	}
}

// --- faults.ParsePlan ---------------------------------------------

func TestParseFaultPlanRoundTrip(t *testing.T) {
	p, err := faults.ParsePlan("crash:mix2@25ms-120ms;loss:*>mix1:0.3@0-;spike:exit>origin:40ms@50ms-90ms;partition:a<>b@10ms-20ms")
	if err != nil {
		t.Fatal(err)
	}
	fs := p.Faults()
	// partition:a<>b expands to two one-way faults.
	if len(fs) != 5 {
		t.Fatalf("faults = %d, want 5", len(fs))
	}
	if !p.CrashedAt("mix2", 30*time.Millisecond) || p.CrashedAt("mix2", 120*time.Millisecond) {
		t.Error("parsed crash window wrong")
	}
	if p.LossAt("anyone", "mix1", time.Hour) != 0.3 {
		t.Error("parsed loss wrong")
	}
	if p.SpikeAt("exit", "origin", 60*time.Millisecond) != 40*time.Millisecond {
		t.Error("parsed spike wrong")
	}
	if !p.PartitionedAt("b", "a", 15*time.Millisecond) {
		t.Error("bidirectional partition missing reverse direction")
	}
}

func TestParseFaultPlanOneWayPartition(t *testing.T) {
	p, err := faults.ParsePlan("partition:a>b@0-")
	if err != nil {
		t.Fatal(err)
	}
	if !p.PartitionedAt("a", "b", 0) {
		t.Error("forward direction not severed")
	}
	if p.PartitionedAt("b", "a", 0) {
		t.Error("one-way partition severed the reverse direction")
	}
}

func TestParseFaultPlanRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"nonsense",                 // missing kind separator usage
		"crash:mix2",               // missing @window
		"crash:@0-",                // missing node
		"crash:m@banana-",          // bad FROM
		"crash:m@10ms-5ms",         // UNTIL before FROM
		"crash:m@10ms-10ms",        // UNTIL == FROM (empty window)
		"loss:a>b:1.5@0-",          // probability out of range
		"loss:a>b:-0.1@0-",         // negative probability
		"loss:ab:0.5@0-",           // missing > link
		"spike:a>b:-5ms@0-",        // negative spike
		"spike:a>b:soon@0-",        // unparsable duration
		"partition:ab@0-",          // no direction marker
		"explode:a@0-",             // unknown kind
		"crash:m@0-;;loss:a>:x@0-", // second fault malformed
	}
	for _, spec := range bad {
		if _, err := faults.ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", spec)
		}
	}
}

func TestParseFaultPlanSkipsEmptySegments(t *testing.T) {
	p, err := faults.ParsePlan(" ; crash:m@0- ; ")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults()) != 1 {
		t.Errorf("faults = %d, want 1", len(p.Faults()))
	}
}

func TestFaultPlanFromSpec(t *testing.T) {
	if p, err := faults.PlanFromSpec(""); err != nil || p != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", p, err)
	}
	for _, name := range faults.NamedPlans() {
		p, err := faults.PlanFromSpec(name)
		if err != nil || p.Empty() {
			t.Errorf("named plan %q = (%v, %v)", name, p, err)
		}
	}
	if _, err := faults.PlanFromSpec("no-such-plan"); err == nil {
		t.Error("unknown name accepted")
	}
}

// --- Crash behavior on the network -----------------------------------

func TestSendToCrashedNodeFailsFast(t *testing.T) {
	n := New(1)
	n.Register("b", func(n transport.Transport, m transport.Message) {})
	n.ApplyFaults(faults.NewPlan().Crash("b", 0, 0))
	n.Run() // let the crash transition fire
	err := n.Send("a", "b", []byte("x"))
	if !errors.Is(err, faults.ErrNodeDown) {
		t.Fatalf("send to crashed node: %v, want ErrNodeDown", err)
	}
	if n.FaultDrops() != 1 {
		t.Errorf("FaultDrops = %d, want 1", n.FaultDrops())
	}
}

func TestSendFromCrashedNodeFailsFast(t *testing.T) {
	n := New(1)
	n.Register("b", func(n transport.Transport, m transport.Message) {})
	n.Register("down", func(n transport.Transport, m transport.Message) {})
	n.ApplyFaults(faults.NewPlan().Crash("down", 0, 0))
	n.Run()
	if err := n.Send("down", "b", nil); !errors.Is(err, faults.ErrNodeDown) {
		t.Fatalf("send from crashed node: %v, want ErrNodeDown", err)
	}
}

func TestInFlightDatagramDroppedOnArrivalAtCrashedNode(t *testing.T) {
	n := New(1)
	delivered := 0
	n.Register("b", func(n transport.Transport, m transport.Message) { delivered++ })
	// Send at t=0 (arrives t=10ms); the node crashes at t=5ms, mid-flight.
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.ApplyFaults(faults.NewPlan().Crash("b", 5*time.Millisecond, 0))
	n.Run()
	if delivered != 0 {
		t.Error("datagram delivered to a crashed node")
	}
	if n.FaultDrops() != 1 || n.Lost() != 1 {
		t.Errorf("FaultDrops=%d Lost=%d, want 1/1", n.FaultDrops(), n.Lost())
	}
}

func TestRestartRestoresDelivery(t *testing.T) {
	n := New(1)
	var deliveredAt []time.Duration
	n.Register("b", func(n transport.Transport, m transport.Message) { deliveredAt = append(deliveredAt, n.Now()) })
	n.ApplyFaults(faults.NewPlan().Crash("b", 0, 50*time.Millisecond))
	// Process the crash transition, then advance past the restart.
	n.RunUntil(60 * time.Millisecond)
	if n.CrashedNow("b") {
		t.Fatal("node still crashed after restart")
	}
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if len(deliveredAt) != 1 || deliveredAt[0] != 70*time.Millisecond {
		t.Errorf("deliveries = %v, want one at 70ms", deliveredAt)
	}
}

func TestCrashCancelsOwnedTimers(t *testing.T) {
	n := New(1)
	fired := false
	// A node arms a timer from inside its handler (the mix batch-flush
	// pattern); crashing the node before the timer fires must cancel it.
	n.Register("mix", func(n transport.Transport, m transport.Message) {
		n.After(100*time.Millisecond, func() { fired = true })
	})
	n.Send("a", "mix", []byte("x")) // handler runs at 10ms, timer due 110ms
	n.RunUntil(20 * time.Millisecond)
	n.ApplyFaults(faults.NewPlan().Crash("mix", 30*time.Millisecond, 0))
	n.Run()
	if fired {
		t.Error("timer owned by a crashed node fired")
	}
}

func TestExternalTimersSurviveCrashes(t *testing.T) {
	n := New(1)
	fired := false
	n.Register("mix", func(n transport.Transport, m transport.Message) {})
	// Armed from outside any handler: no owner, survives every crash.
	n.After(100*time.Millisecond, func() { fired = true })
	n.ApplyFaults(faults.NewPlan().Crash("mix", 0, 0))
	n.Run()
	if !fired {
		t.Error("ownerless timer was cancelled by an unrelated crash")
	}
}

// TestCrashEventFIFOAgainstSameTimestampDelivery pins the documented
// tiebreak: crash/restart transitions are queue events, so at equal
// timestamps whichever was enqueued first wins.
func TestCrashEventFIFOAgainstSameTimestampDelivery(t *testing.T) {
	const at = 10 * time.Millisecond // default link latency

	// Plan applied BEFORE the send: the crash transition at t=10ms
	// precedes the delivery at t=10ms, so the datagram is dropped.
	n := New(1)
	got := 0
	n.Register("b", func(n transport.Transport, m transport.Message) { got++ })
	n.ApplyFaults(faults.NewPlan().Crash("b", at, 0))
	if err := n.Send("a", "b", nil); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got != 0 {
		t.Error("plan-before-send: delivery beat the same-timestamp crash")
	}

	// Send BEFORE the plan: the in-flight delivery was enqueued first
	// and lands before the crash transition.
	n = New(1)
	n.Register("b", func(n transport.Transport, m transport.Message) { got++ })
	if err := n.Send("a", "b", nil); err != nil {
		t.Fatal(err)
	}
	n.ApplyFaults(faults.NewPlan().Crash("b", at, 0))
	n.Run()
	if got != 1 {
		t.Error("send-before-plan: same-timestamp crash beat the in-flight delivery")
	}
}

// TestApplyFaultsClampsPastWindows: applying a plan whose window starts
// before the current virtual time must not rewind the clock — the
// transition fires now.
func TestApplyFaultsClampsPastWindows(t *testing.T) {
	n := New(1)
	n.Register("b", func(n transport.Transport, m transport.Message) {})
	n.After(50*time.Millisecond, func() {})
	n.Run() // clock now at 50ms
	n.ApplyFaults(faults.NewPlan().Crash("b", 10*time.Millisecond, 0))
	n.Run()
	if n.Now() != 50*time.Millisecond {
		t.Errorf("clock rewound to %v", n.Now())
	}
	if !n.CrashedNow("b") {
		t.Error("past-window crash never took effect")
	}
}

func TestWildcardCrashExpandsOverRegisteredNodes(t *testing.T) {
	n := New(1)
	n.Register("x", func(n transport.Transport, m transport.Message) {})
	n.Register("y", func(n transport.Transport, m transport.Message) {})
	n.ApplyFaults(faults.NewPlan().Crash(faults.Wildcard, 0, 0))
	n.Run()
	if !n.CrashedNow("x") || !n.CrashedNow("y") {
		t.Error("wildcard crash missed a registered node")
	}
}

// --- Partition, burst loss, spike on the wire -------------------------

func TestPartitionDropsSilently(t *testing.T) {
	n := New(1)
	got := 0
	n.Register("b", func(n transport.Transport, m transport.Message) { got++ })
	n.ApplyFaults(faults.NewPlan().PartitionOneWay("a", "b", 0, 0))
	// The wire gives no error — only timeouts notice.
	if err := n.Send("a", "b", nil); err != nil {
		t.Fatalf("partitioned send returned error: %v", err)
	}
	if err := n.Send("c", "b", nil); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got != 1 {
		t.Errorf("deliveries = %d, want only the unpartitioned sender's", got)
	}
	if n.FaultDrops() != 1 {
		t.Errorf("FaultDrops = %d", n.FaultDrops())
	}
}

func TestBurstLossRaisesDropProbability(t *testing.T) {
	n := New(7)
	n.SetDefaultLink(Link{Latency: time.Millisecond})
	n.Register("b", func(n transport.Transport, m transport.Message) {})
	n.ApplyFaults(faults.NewPlan().Loss("a", "b", 1.0, 0, 0))
	for i := 0; i < 20; i++ {
		n.Send("a", "b", nil)
	}
	n.Run()
	if n.Delivered() != 0 {
		t.Errorf("delivered %d through a 100%% burst-loss window", n.Delivered())
	}
	if n.Lost() != 20 {
		t.Errorf("Lost = %d", n.Lost())
	}
}

func TestLatencySpikeDelaysDelivery(t *testing.T) {
	n := New(1)
	var at time.Duration
	n.Register("b", func(n transport.Transport, m transport.Message) { at = n.Now() })
	n.ApplyFaults(faults.NewPlan().LatencySpike("a", "b", 40*time.Millisecond, 0, time.Second))
	n.Send("a", "b", nil)
	n.Run()
	if at != 50*time.Millisecond { // 10ms default + 40ms spike
		t.Errorf("delivery at %v, want 50ms", at)
	}
}

func TestSpikeOutsideWindowIsFree(t *testing.T) {
	n := New(1)
	var at time.Duration
	n.Register("b", func(n transport.Transport, m transport.Message) { at = n.Now() })
	n.ApplyFaults(faults.NewPlan().LatencySpike("a", "b", 40*time.Millisecond, time.Second, 2*time.Second))
	n.Send("a", "b", nil) // sent at t=0, before the spike window
	n.Run()
	if at != 10*time.Millisecond {
		t.Errorf("delivery at %v, want plain 10ms", at)
	}
}

// --- Determinism under faults -----------------------------------------

func TestChaosRunIsDeterministic(t *testing.T) {
	run := func() ([]transport.PacketRecord, uint64) {
		n := New(42)
		n.SetDefaultLink(Link{Latency: 5 * time.Millisecond})
		n.Register("sink", func(n transport.Transport, m transport.Message) {})
		n.ApplyFaults(faults.NewPlan().
			Loss(faults.Wildcard, "sink", 0.4, 0, 0).
			Crash("sink", 200*time.Millisecond, 300*time.Millisecond))
		for i := 0; i < 100; i++ {
			at := time.Duration(i) * 4 * time.Millisecond
			n.After(at, func() { n.Send(transport.Addr(fmt.Sprintf("n%d", i%5)), "sink", make([]byte, 16)) })
		}
		n.Run()
		return n.Capture(), n.FaultDrops()
	}
	capA, dropsA := run()
	capB, dropsB := run()
	if dropsA != dropsB {
		t.Fatalf("fault drops differ: %d vs %d", dropsA, dropsB)
	}
	if len(capA) != len(capB) {
		t.Fatalf("capture lengths differ: %d vs %d", len(capA), len(capB))
	}
	for i := range capA {
		if capA[i] != capB[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, capA[i], capB[i])
		}
	}
}

// --- Satellite edge cases ---------------------------------------------

// TestRunUntilLeavesTimersPastDeadline: RunUntil must not fire timers
// scheduled beyond the deadline, and a later Run picks them up.
func TestRunUntilLeavesTimersPastDeadline(t *testing.T) {
	n := New(1)
	var fired []time.Duration
	n.After(30*time.Millisecond, func() { fired = append(fired, n.Now()) })
	n.After(90*time.Millisecond, func() { fired = append(fired, n.Now()) })
	n.RunUntil(50 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 30*time.Millisecond {
		t.Fatalf("fired within deadline = %v, want [30ms]", fired)
	}
	if n.Now() != 50*time.Millisecond {
		t.Errorf("clock = %v, want 50ms", n.Now())
	}
	if n.Pending() != 1 {
		t.Errorf("pending = %d, want the 90ms timer", n.Pending())
	}
	n.Run()
	if len(fired) != 2 || fired[1] != 90*time.Millisecond {
		t.Errorf("fired after resume = %v", fired)
	}
}

// TestZeroJitterBoundary: a send draws nothing from the network RNG —
// links add no jitter, and a fault plan's loss draws from
// faults.LossDraw — and delivery is exactly the link latency.
func TestZeroJitterBoundary(t *testing.T) {
	n := New(1)
	var at time.Duration
	n.Register("b", func(n transport.Transport, m transport.Message) { at = n.Now() })
	n.Register("c", func(n transport.Transport, m transport.Message) {})
	n.SetDefaultLink(Link{Latency: 7 * time.Millisecond})
	n.ApplyFaults(faults.NewPlan().Loss("a", "c", 0.5, 0, 0))
	if err := n.Send("a", "b", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := n.Send("a", "c", nil); err != nil {
			t.Fatal(err)
		}
	}
	n.Run()
	if at != 7*time.Millisecond {
		t.Errorf("delivery at %v, want exactly 7ms", at)
	}
	// And the RNG stream is untouched: a fresh same-seed network that
	// never sent anything draws the same first value.
	fresh := New(1)
	if n.Rand(1<<30) != fresh.Rand(1<<30) {
		t.Error("a send consumed an RNG draw")
	}
}
