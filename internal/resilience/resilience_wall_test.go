package resilience

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Wall-clock coverage: the asynchronous helpers (RetryAsync, Watchdog)
// were written against the simulator's virtual Clock, but the real
// transport drives them from concurrent time.AfterFunc goroutines. These
// tests run them on a real clock under -race, including the case the
// virtual clock can never produce: done() flipping true WHILE a backoff
// sleep is in flight on another goroutine.

// wallClock adapts the real clock to the Clock surface, mirroring how
// nettransport implements it (elapsed-since-start Now, AfterFunc
// timers firing on their own goroutines).
type wallClock struct{ start time.Time }

func newWallClock() *wallClock { return &wallClock{start: time.Now()} }

func (c *wallClock) Now() time.Duration { return time.Since(c.start) }

func (c *wallClock) After(d time.Duration, fn func()) func() bool { return time.AfterFunc(d, fn).Stop }

// waitFor polls cond with a generous deadline; wall-clock tests assert
// eventual outcomes, never exact timings.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func wallPolicy() Policy {
	return Policy{
		Protocol:    "wall-test",
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		JitterFrac:  0.25,
		Timeout:     30 * time.Millisecond,
	}
}

// TestRetryAsyncRealClockRecovers: attempt 0 fails immediately, attempt
// 1 launches but never completes (timeout path), attempt 2 succeeds.
// All transitions happen on timer goroutines.
func TestRetryAsyncRealClockRecovers(t *testing.T) {
	t.Parallel()
	c := newWallClock()
	var attempts atomic.Int32
	var ok atomic.Bool
	var failed atomic.Bool
	RetryAsync(c, nil, wallPolicy(), 0xFA11,
		func(attempt int) error {
			attempts.Add(1)
			switch attempt {
			case 0:
				return errors.New("injected immediate failure")
			case 1:
				return nil // launched, but done() stays false: watchdog fires
			default:
				ok.Store(true)
				return nil
			}
		},
		func() bool { return ok.Load() },
		func(error) { failed.Store(true) })
	waitFor(t, "third attempt to succeed", func() bool { return ok.Load() })
	waitFor(t, "attempt count to settle", func() bool { return attempts.Load() >= 3 })
	// No further attempts once done() is true: the pending watchdog for
	// attempt 2 must observe done and go quiet.
	time.Sleep(100 * time.Millisecond)
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want exactly 3", got)
	}
	if failed.Load() {
		t.Fatal("fail() ran even though an attempt succeeded")
	}
}

// TestRetryAsyncCancelledDuringBackoffSleep: attempt 0 fails, putting
// the operation into a real backoff sleep; done() flips true while that
// sleep is in flight. The retry timer must fire, observe done, and NOT
// launch another attempt.
func TestRetryAsyncCancelledDuringBackoffSleep(t *testing.T) {
	t.Parallel()
	c := newWallClock()
	p := wallPolicy()
	p.BaseDelay = 60 * time.Millisecond // wide window to land the flip in
	p.JitterFrac = 0
	var attempts atomic.Int32
	var done atomic.Bool
	var failed atomic.Bool
	RetryAsync(c, nil, p, 0xCA9CE1,
		func(attempt int) error {
			attempts.Add(1)
			return fmt.Errorf("attempt %d refused", attempt)
		},
		func() bool { return done.Load() },
		func(error) { failed.Store(true) })
	waitFor(t, "first attempt", func() bool { return attempts.Load() == 1 })
	done.Store(true) // cancel mid-backoff: the 60ms retry timer is pending
	time.Sleep(200 * time.Millisecond)
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d after cancellation during backoff, want 1", got)
	}
	if failed.Load() {
		t.Fatal("fail() ran for a cancelled operation")
	}
}

// TestRetryAsyncRealClockExhausts: every attempt fails immediately; the
// budget drains through real backoff sleeps and fail() reports
// ErrExhausted exactly once.
func TestRetryAsyncRealClockExhausts(t *testing.T) {
	t.Parallel()
	c := newWallClock()
	var attempts atomic.Int32
	var fails atomic.Int32
	var lastErr atomic.Pointer[error]
	RetryAsync(c, nil, wallPolicy(), 0xDEAD,
		func(attempt int) error { attempts.Add(1); return errors.New("always down") },
		func() bool { return false },
		func(err error) { fails.Add(1); lastErr.Store(&err) })
	waitFor(t, "exhaustion", func() bool { return fails.Load() == 1 })
	if got := attempts.Load(); got != 4 {
		t.Fatalf("attempts = %d, want MaxAttempts = 4", got)
	}
	if err := *lastErr.Load(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("fail() error = %v, want ErrExhausted", err)
	}
}

// TestWatchdogRealClock: on a real clock the watchdog fires iff done()
// is still false at the deadline.
func TestWatchdogRealClock(t *testing.T) {
	t.Parallel()
	c := newWallClock()
	var fired atomic.Bool
	Watchdog(c, nil, "wall-test", 20*time.Millisecond, func() bool { return false }, func() { fired.Store(true) })
	waitFor(t, "watchdog to fire", func() bool { return fired.Load() })

	var spurious atomic.Bool
	var done atomic.Bool
	Watchdog(c, nil, "wall-test", 20*time.Millisecond, func() bool { return done.Load() }, func() { spurious.Store(true) })
	done.Store(true)
	time.Sleep(80 * time.Millisecond)
	if spurious.Load() {
		t.Fatal("watchdog fired even though done() was true at the deadline")
	}
}

// TestRetryAsyncConcurrentOperations: many operations share one policy
// on the real clock — the shape of a loadgen chaos run. Under -race
// this exercises the per-operation state and the watchdogs from dozens
// of timer goroutines at once.
func TestRetryAsyncConcurrentOperations(t *testing.T) {
	t.Parallel()
	c := newWallClock()
	p := wallPolicy()
	const ops = 32
	var wg sync.WaitGroup
	var succeeded atomic.Int32
	for i := 0; i < ops; i++ {
		i := i
		wg.Add(1)
		var ok atomic.Bool
		RetryAsync(c, nil, p, uint64(i),
			func(attempt int) error {
				if attempt < i%3 {
					return fmt.Errorf("op %d attempt %d refused", i, attempt)
				}
				ok.Store(true)
				return nil
			},
			func() bool { return ok.Load() },
			func(error) {})
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if ok.Load() {
					succeeded.Add(1)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := succeeded.Load(); got != ops {
		t.Fatalf("%d/%d operations succeeded on the real clock", got, ops)
	}
}
