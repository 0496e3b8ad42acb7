package resilience

import (
	"errors"
	"testing"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/simnet"
	"decoupling/internal/transport"
)

// --- Watchdog firing inside a crash window ------------------------------

// A watchdog armed against a node that crashes before the deadline must
// still fire on the virtual clock: crash faults suppress message
// delivery, never failure detection — otherwise a crashed endpoint would
// disable exactly the timer meant to notice it.
func TestWatchdogFiresDuringCrashWindow(t *testing.T) {
	net := simnet.New(1)
	net.Register("srv", func(n transport.Transport, msg transport.Message) {})
	net.ApplyFaults(faults.NewPlan().Crash("srv", 0, 100*time.Millisecond))

	var firedAt time.Duration
	fired := 0
	Watchdog(net, nil, "t", 50*time.Millisecond, func() bool { return false }, func() {
		fired++
		firedAt = net.Now()
	})

	// A second watchdog whose operation completes in time must stay
	// silent even though its deadline also lands inside the window.
	completed := 0
	Watchdog(net, nil, "t", 60*time.Millisecond, func() bool { return true }, func() { completed++ })

	net.Run()
	if fired != 1 {
		t.Fatalf("watchdog fired %d times, want 1", fired)
	}
	if firedAt != 50*time.Millisecond {
		t.Errorf("watchdog fired at %v, want 50ms (inside the crash window)", firedAt)
	}
	if completed != 0 {
		t.Errorf("completed operation's watchdog fired %d times, want 0", completed)
	}
}

// --- RetryAsync cancellation ordering -----------------------------------

// When the operation completes between a failed attempt and its
// scheduled retry, the retry callback must observe done() and cancel:
// no further start, no fail. The ordering is exercised on the virtual
// clock with the completion strictly before the retry fires.
func TestRetryAsyncCancelsPendingRetry(t *testing.T) {
	net := simnet.New(1)
	p := Policy{Protocol: "t", MaxAttempts: 4, BaseDelay: 20 * time.Millisecond,
		Timeout: 250 * time.Millisecond}

	starts := 0
	fails := 0
	doneAt := time.Duration(-1)
	isDone := func() bool { return doneAt >= 0 && net.Now() >= doneAt }
	RetryAsync(net, nil, p, 7, func(attempt int) error {
		starts++
		return errors.New("node down") // immediate failure, retry in 20ms
	}, isDone, func(error) { fails++ })

	// Completion lands at 10ms — after attempt 0 failed at t=0, before
	// its retry fires at t=20ms.
	net.After(10*time.Millisecond, func() { doneAt = net.Now() })

	net.Run()
	if starts != 1 {
		t.Errorf("starts = %d, want 1 (retry must cancel on done)", starts)
	}
	if fails != 0 {
		t.Errorf("fail ran %d times, want 0", fails)
	}
}

// When the operation completes between an attempt's start and its
// timeout, the pending watchdog must observe done() and neither retry
// nor fail — completion wins the race against its own timeout.
func TestRetryAsyncCancelsPendingTimeout(t *testing.T) {
	net := simnet.New(1)
	p := Policy{Protocol: "t", MaxAttempts: 2, BaseDelay: 5 * time.Millisecond,
		Timeout: 40 * time.Millisecond}

	starts := 0
	fails := 0
	done := false
	RetryAsync(net, nil, p, 7, func(attempt int) error {
		starts++
		// The attempt "succeeds" asynchronously at t=15ms, inside the
		// 40ms watchdog window.
		net.After(15*time.Millisecond, func() { done = true })
		return nil
	}, func() bool { return done }, func(error) { fails++ })

	net.Run()
	if starts != 1 {
		t.Errorf("starts = %d, want 1 (timeout must not retry a completed op)", starts)
	}
	if fails != 0 {
		t.Errorf("fail ran %d times, want 0", fails)
	}
	if !done {
		t.Error("operation never completed")
	}
}

// Exhaustion ordering: when every attempt times out, fail must run
// exactly once, after the LAST attempt's watchdog — never concurrently
// with a still-pending retry.
func TestRetryAsyncExhaustionFiresOnce(t *testing.T) {
	net := simnet.New(1)
	p := Policy{Protocol: "t", MaxAttempts: 3, BaseDelay: 10 * time.Millisecond,
		Timeout: 30 * time.Millisecond}

	starts := 0
	fails := 0
	var failAt time.Duration
	var lastStartAt time.Duration
	RetryAsync(net, nil, p, 7, func(attempt int) error {
		starts++
		lastStartAt = net.Now()
		return nil // started, but never completes: timeout drives retries
	}, func() bool { return false }, func(err error) {
		fails++
		failAt = net.Now()
		if !errors.Is(err, ErrExhausted) {
			t.Errorf("fail error = %v, want ErrExhausted", err)
		}
	})

	net.Run()
	if starts != 3 {
		t.Errorf("starts = %d, want 3", starts)
	}
	if fails != 1 {
		t.Errorf("fail ran %d times, want exactly 1", fails)
	}
	if failAt < lastStartAt+p.Timeout {
		t.Errorf("fail at %v, before the last attempt's %v timeout elapsed (start %v)",
			failAt, p.Timeout, lastStartAt)
	}
}
