package nettransport

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"decoupling/internal/transport"
)

// The stop contract of After on the real transport, for both kinds of
// timer: one a handler arms through its node view, which fires on the
// node's dispatcher, and one armed on the Net itself, which fires on its
// own goroutine.

// armer arms timers the way each kind is armed and hands back their
// stops.
type armer func(t *testing.T, net *Net, delay time.Duration, fn func()) (stop func() bool)

var timerKinds = []struct {
	name string
	arm  armer
}{
	{"handler", armHandlerTimer},
	{"outside", func(_ *testing.T, net *Net, delay time.Duration, fn func()) func() bool {
		return net.After(delay, fn)
	}},
}

// armHandlerTimer has a node's handler arm the timer and pass its stop
// out, so the caller can stop it while the dispatcher is free to fire
// it.
func armHandlerTimer(t *testing.T, net *Net, delay time.Duration, fn func()) func() bool {
	t.Helper()
	stops := make(chan func() bool, 1)
	net.Register("node", func(tr transport.Transport, _ transport.Message) {
		stops <- tr.After(delay, fn)
	})
	if err := net.Send("src", "node", []byte("arm")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	return <-stops
}

func TestTimerStopReleasesPending(t *testing.T) {
	const delay = 2 * time.Second
	for _, k := range timerKinds {
		t.Run(k.name, func(t *testing.T) {
			net := newTest(t, Options{})
			var fired atomic.Bool
			start := time.Now()
			stop := k.arm(t, net, delay, func() { fired.Store(true) })
			if !stop() {
				t.Fatal("stop of an armed timer returned false")
			}
			net.Run()
			if el := time.Since(start); el > delay/2 {
				t.Errorf("Run took %v after stop; it waited for the stopped %v timer", el, delay)
			}
			if p := net.Pending(); p != 0 {
				t.Errorf("Pending() = %d after stop, want 0", p)
			}
			if stop() {
				t.Error("second stop returned true")
			}
			if fired.Load() {
				t.Error("stopped timer fired")
			}
		})
	}
}

// TestTimerStopRacesFire stops timers due at once or within 1µs, so
// the stop and the fire race. Each timer must either be stopped or fire exactly
// once, never both, and the pending count must come back to zero:
// released once, by whichever side won.
func TestTimerStopRacesFire(t *testing.T) {
	const rounds = 200
	for _, k := range timerKinds {
		t.Run(k.name, func(t *testing.T) {
			net := newTest(t, Options{})
			fired := make([]atomic.Int32, rounds)
			stopped := make([]bool, rounds)
			for i := range fired {
				stop := k.arm(t, net, time.Duration(i%2)*time.Microsecond, func() { fired[i].Add(1) })
				if i%4 >= 2 {
					runtime.Gosched()
				}
				stopped[i] = stop()
			}
			net.Run()
			won := 0
			for i := range fired {
				f := fired[i].Load()
				if f > 1 || (f == 1) == stopped[i] {
					t.Fatalf("timer %d: fired %d times, stop returned %v", i, f, stopped[i])
				}
				if stopped[i] {
					won++
				}
			}
			t.Logf("stop won %d of %d races", won, rounds)
			if p := net.Pending(); p != 0 {
				t.Errorf("Pending() = %d after Run, want 0", p)
			}
		})
	}
}
