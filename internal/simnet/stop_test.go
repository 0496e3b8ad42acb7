package simnet

import (
	"testing"
	"time"

	"decoupling/internal/transport"
)

// The stop contract of After: a stopped timer's event leaves the queue,
// so it never fires, never moves the clock and never reaches a
// Scheduler, and stop reports true only for the call that disarmed it.

func TestTimerStopNeverFires(t *testing.T) {
	n := New(1)
	fired := false
	stop := n.After(50*time.Millisecond, func() { fired = true })
	if !stop() {
		t.Fatal("stop of an armed timer returned false")
	}
	if p := n.Pending(); p != 0 {
		t.Errorf("Pending() = %d after stop, want 0", p)
	}
	n.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopKeepsClockShortOfDeadline(t *testing.T) {
	n := New(1)
	n.Register("b", func(transport.Transport, transport.Message) {})
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.After(100*time.Millisecond, func() {})()
	n.Run()
	if now := n.Now(); now != 10*time.Millisecond {
		t.Errorf("Now() = %v after Run, want the 10ms delivery, short of the stopped 100ms timer", now)
	}
}

// recordingScheduler keeps every ready set it is shown and picks the
// canonical event.
type recordingScheduler struct{ seen []EventMeta }

func (s *recordingScheduler) Pick(ready []EventMeta) int {
	s.seen = append(s.seen, ready...)
	return 0
}

func TestTimerStopHidesEventFromScheduler(t *testing.T) {
	n := New(1)
	sched := &recordingScheduler{}
	n.SetScheduler(sched)
	n.Register("b", func(transport.Transport, transport.Message) {})
	// Two same-time deliveries on different links make a decision point;
	// the stopped timer is due at the same instant.
	n.Send("a1", "b", []byte("x"))
	n.Send("a2", "b", []byte("y"))
	stop := n.After(10*time.Millisecond, func() { t.Error("stopped timer fired") })
	stop()
	n.Run()
	if len(sched.seen) == 0 {
		t.Fatal("scheduler was never consulted")
	}
	for _, m := range sched.seen {
		if m.Timer {
			t.Fatalf("stopped timer reached the scheduler: %+v", m)
		}
	}
}

func TestTimerStopReturnsFalseAfterFireOrSecondCall(t *testing.T) {
	n := New(1)
	// The callback calls its own stop, as a mix's batch timeout does
	// when it flushes.
	var stop func() bool
	var inFire []bool
	stop = n.After(5*time.Millisecond, func() { inFire = append(inFire, stop()) })
	n.Run()
	if len(inFire) != 1 || inFire[0] {
		t.Fatalf("stop from the timer's own callback = %v, want one false", inFire)
	}
	if stop() {
		t.Error("stop after the fire returned true")
	}

	again := n.After(5*time.Millisecond, func() { t.Error("stopped timer fired") })
	if !again() {
		t.Fatal("first stop returned false")
	}
	if again() {
		t.Error("second stop returned true")
	}
	n.Run()
}
