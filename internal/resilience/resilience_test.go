package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/simnet"
	"decoupling/internal/telemetry"
	"decoupling/internal/transport"
)

// --- Backoff ----------------------------------------------------------

func TestBackoffIsDeterministic(t *testing.T) {
	p := Default("test")
	for attempt := 1; attempt <= 6; attempt++ {
		a := p.Backoff(42, attempt)
		b := p.Backoff(42, attempt)
		if a != b {
			t.Fatalf("attempt %d: %v != %v for the same (seed, attempt)", attempt, a, b)
		}
	}
	if p.Backoff(1, 2) == p.Backoff(2, 2) {
		t.Error("different seeds produced identical jitter (suspicious)")
	}
}

func TestBackoffSchedule(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, // attempt 1
		20 * time.Millisecond, // attempt 2
		40 * time.Millisecond, // attempt 3: capped
		40 * time.Millisecond, // attempt 4: stays capped
	}
	for i, w := range want {
		if got := p.Backoff(0, i+1); got != w {
			t.Errorf("Backoff(attempt %d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 100 * time.Millisecond, JitterFrac: 0.25}
	for seed := uint64(0); seed < 200; seed++ {
		d := p.Backoff(seed, 1)
		if d < 100*time.Millisecond || d >= 125*time.Millisecond {
			t.Fatalf("seed %d: backoff %v outside [100ms, 125ms)", seed, d)
		}
	}
}

func TestBackoffEdgeCases(t *testing.T) {
	p := Default("test")
	if p.Backoff(1, 0) != 0 {
		t.Error("attempt 0 should not back off")
	}
	if (Policy{}).Backoff(1, 3) != 0 {
		t.Error("zero BaseDelay should not back off")
	}
}

// --- Do / DoFailover ---------------------------------------------------

func TestDoSucceedsFirstAttempt(t *testing.T) {
	calls := 0
	err := Do(Default("t"), nil, 1, nil, func(attempt int) error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestDoRetriesThenSucceeds(t *testing.T) {
	var slept []time.Duration
	attempts := 0
	p := Policy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	err := Do(p, nil, 7, func(d time.Duration) { slept = append(slept, d) }, func(attempt int) error {
		if attempt != attempts {
			t.Errorf("attempt = %d, want %d", attempt, attempts)
		}
		attempts++
		if attempts < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d", attempts)
	}
	// One sleep per retry, following the policy's schedule exactly.
	want := []time.Duration{p.Backoff(7, 1), p.Backoff(7, 2)}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("slept %v, want %v", slept, want)
	}
}

func TestDoExhaustionWrapsErrExhausted(t *testing.T) {
	boom := errors.New("boom")
	err := Do(Policy{Protocol: "t", MaxAttempts: 3}, nil, 1, nil, func(int) error { return boom })
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	// The last underlying error's text survives for diagnosis.
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("boom")) {
		t.Errorf("exhaustion lost the cause: %q", got)
	}
}

func TestDoFailoverRotatesEndpoints(t *testing.T) {
	var visited []int
	ep, err := DoFailover(Policy{MaxAttempts: 4}, nil, 1, nil, 3, func(attempt, endpoint int) error {
		visited = append(visited, endpoint)
		if endpoint == 2 {
			return nil // only the third endpoint is healthy
		}
		return errors.New("down")
	})
	if err != nil {
		t.Fatal(err)
	}
	if ep != 2 {
		t.Errorf("succeeded endpoint = %d, want 2", ep)
	}
	want := []int{0, 1, 2}
	if len(visited) != 3 || visited[0] != 0 || visited[1] != 1 || visited[2] != 2 {
		t.Errorf("visited %v, want %v", visited, want)
	}
}

func TestDoFailoverWrapsAroundTheRing(t *testing.T) {
	var visited []int
	_, err := DoFailover(Policy{MaxAttempts: 5}, nil, 1, nil, 2, func(attempt, endpoint int) error {
		visited = append(visited, endpoint)
		return errors.New("down")
	})
	if !errors.Is(err, ErrExhausted) {
		t.Fatal("want exhaustion")
	}
	want := []int{0, 1, 0, 1, 0}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}

func TestDoFailoverNoEndpoints(t *testing.T) {
	_, err := DoFailover(Policy{Protocol: "t"}, nil, 1, nil, 0, func(int, int) error { return nil })
	if !errors.Is(err, ErrExhausted) {
		t.Errorf("zero endpoints: %v, want ErrExhausted", err)
	}
}

func TestMaxAttemptsZeroMeansOneAttempt(t *testing.T) {
	calls := 0
	Do(Policy{}, nil, 1, nil, func(int) error { calls++; return errors.New("x") })
	if calls != 1 {
		t.Errorf("calls = %d, want exactly 1", calls)
	}
}

// --- Mode ----------------------------------------------------------------

func TestModeStrings(t *testing.T) {
	if FailClosed.String() != "fail-closed" || FailOpen.String() != "fail-open" {
		t.Errorf("mode strings: %q / %q", FailClosed, FailOpen)
	}
}

// --- RetryAsync / Watchdog on the virtual clock ---------------------------

func TestRetryAsyncImmediateErrorRetries(t *testing.T) {
	net := simnet.New(1)
	p := Policy{Protocol: "t", MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Timeout: 50 * time.Millisecond}
	succeeded := false
	var starts []time.Duration
	RetryAsync(net, nil, p, 9, func(attempt int) error {
		starts = append(starts, net.Now())
		if attempt < 2 {
			return errors.New("refused") // fail fast, no timeout wait
		}
		succeeded = true
		return nil
	}, func() bool { return succeeded }, func(err error) { t.Errorf("fail: %v", err) })
	net.Run()
	if !succeeded {
		t.Fatal("never succeeded")
	}
	// Immediate errors retry after Backoff, not after Timeout.
	want := []time.Duration{0, p.Backoff(9, 1), p.Backoff(9, 1) + p.Backoff(9, 2)}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("attempt starts %v, want %v", starts, want)
		}
	}
}

func TestRetryAsyncTimeoutPathRetries(t *testing.T) {
	net := simnet.New(1)
	p := Policy{Protocol: "t", MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, Timeout: 40 * time.Millisecond}
	delivered := false
	attempts := 0
	RetryAsync(net, nil, p, 3, func(attempt int) error {
		attempts++
		if attempt == 1 {
			// Second attempt "lands" 10ms later, inside its timeout.
			net.After(10*time.Millisecond, func() { delivered = true })
		}
		return nil // the send itself succeeds; the first one just vanishes
	}, func() bool { return delivered }, func(err error) { t.Errorf("fail: %v", err) })
	net.Run()
	if attempts != 2 || !delivered {
		t.Errorf("attempts=%d delivered=%v", attempts, delivered)
	}
}

func TestRetryAsyncExhaustionFailsClosed(t *testing.T) {
	net := simnet.New(1)
	p := Policy{Protocol: "t", MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, Timeout: 30 * time.Millisecond}
	var failErr error
	RetryAsync(net, nil, p, 3,
		func(attempt int) error { return nil }, // starts fine, never completes
		func() bool { return false },
		func(err error) { failErr = err })
	net.Run()
	if !errors.Is(failErr, ErrExhausted) {
		t.Fatalf("fail err = %v, want ErrExhausted", failErr)
	}
}

func TestRetryAsyncStopsWhenDoneBeforeRetry(t *testing.T) {
	net := simnet.New(1)
	p := Policy{Protocol: "t", MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, Timeout: 20 * time.Millisecond}
	attempts := 0
	done := false
	RetryAsync(net, nil, p, 3, func(attempt int) error {
		attempts++
		// The operation completes AFTER the timeout would fire a retry is
		// scheduled, but done() gates every (re)start.
		net.After(5*time.Millisecond, func() { done = true })
		return nil
	}, func() bool { return done }, func(err error) { t.Errorf("fail: %v", err) })
	net.Run()
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 (done() should gate retries)", attempts)
	}
}

func TestWatchdog(t *testing.T) {
	net := simnet.New(1)
	timedOut := false
	Watchdog(net, nil, "t", 50*time.Millisecond, func() bool { return false }, func() { timedOut = true })
	net.Run()
	if !timedOut {
		t.Error("watchdog never fired")
	}

	net = simnet.New(1)
	timedOut = false
	Watchdog(net, nil, "t", 50*time.Millisecond, func() bool { return true }, func() { timedOut = true })
	net.Run()
	if timedOut {
		t.Error("watchdog fired although done")
	}
}

// --- Telemetry integration -------------------------------------------

// TestResilienceMetricsRoundTrip drives every new counter (retries,
// timeouts, failovers, exhaustions, simnet fault drops) and checks the
// exposition round-trips byte-identically through the strict parser.
func TestResilienceMetricsRoundTrip(t *testing.T) {
	m := telemetry.NewMetrics()
	tel := telemetry.New(false, m)

	// Failover + retries + a fail-closed exhaustion.
	DoFailover(Policy{Protocol: "odoh", MaxAttempts: 3, BaseDelay: time.Millisecond}, tel, 1, nil, 2,
		func(int, int) error { return errors.New("down") })

	// Timeouts + a fail-open exhaustion on the virtual clock.
	net := simnet.New(5)
	net.Instrument(tel)
	RetryAsync(net, tel, Policy{Protocol: "mixnet", MaxAttempts: 2, BaseDelay: time.Millisecond,
		Timeout: 10 * time.Millisecond, Mode: FailOpen}, 2,
		func(int) error { return nil }, func() bool { return false }, func(error) {})
	net.Run()

	// A fault drop.
	net.Register("sink", func(n transport.Transport, msg transport.Message) {})
	net.ApplyFaults(faults.NewPlan().Crash("sink", 0, 0))
	net.Run()
	net.Send("src", "sink", []byte("x"))

	var first bytes.Buffer
	if err := m.WriteProm(&first); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		telemetry.MetricRetries, telemetry.MetricTimeouts, telemetry.MetricFailovers,
		telemetry.MetricExhausted, telemetry.MetricSimnetFaultDrops,
	} {
		if !bytes.Contains(first.Bytes(), []byte(name)) {
			t.Errorf("exposition missing %s:\n%s", name, first.String())
		}
	}
	for _, mode := range []string{`mode="fail-closed"`, `mode="fail-open"`} {
		if !bytes.Contains(first.Bytes(), []byte(mode)) {
			t.Errorf("exposition missing %s label", mode)
		}
	}
	fams, err := telemetry.ParseExposition(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("strict parser rejected our own output: %v\n%s", err, first.String())
	}
	var second bytes.Buffer
	if err := telemetry.WriteExpFamilies(&second, fams); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("parse(write(m)) != write(m):\n--- first ---\n%s--- second ---\n%s", first.String(), second.String())
	}
}

// TestNilTelemetryIsInert: every helper must run with a nil sink (the
// default for un-instrumented experiments).
func TestNilTelemetryIsInert(t *testing.T) {
	if err := Do(Default("t"), nil, 1, nil, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	net := simnet.New(1)
	RetryAsync(net, nil, Policy{MaxAttempts: 1, Timeout: time.Millisecond}, 1,
		func(int) error { return nil }, func() bool { return true }, nil)
	net.Run()
}

// TestRetryScheduleDeterminism: two identical chaos loops produce the
// same attempt timestamps — the property every experiment relies on.
func TestRetryScheduleDeterminism(t *testing.T) {
	run := func() []string {
		net := simnet.New(3)
		p := Policy{Protocol: "t", MaxAttempts: 4, BaseDelay: 5 * time.Millisecond,
			MaxDelay: 40 * time.Millisecond, JitterFrac: 0.25, Timeout: 25 * time.Millisecond}
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			ok := false
			RetryAsync(net, nil, p, uint64(i), func(attempt int) error {
				log = append(log, fmt.Sprintf("op%d attempt%d @%v", i, attempt, net.Now()))
				if attempt < i%3 {
					return errors.New("transient")
				}
				ok = true
				return nil
			}, func() bool { return ok }, nil)
		}
		net.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}
