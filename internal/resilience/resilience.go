// Package resilience is the shared retry/timeout/failover layer for the
// decoupled protocol stacks (§4 of the paper: every added hop is an
// added failure mode, and the operational cost of decoupling includes
// recovering from those failures WITHOUT un-decoupling).
//
// The central design rule is the degradation policy. Every protocol
// client that adopts this package declares one, and the default is
// fail-closed: when all decoupled paths are exhausted, the operation
// returns an error wrapping ErrExhausted — it never silently falls back
// to a direct, re-coupling path. A fail-open mode exists so the E16
// counterexample can demonstrate exactly why that fallback is dangerous
// (the ledger-derived tuple flips to COUPLED); production policies
// should never use it.
//
// Everything here is deterministic. Backoff jitter comes from a
// splitmix64 hash of (seed, attempt) rather than a global RNG, so two
// runs with the same seeds produce byte-identical schedules, and
// concurrent operations cannot perturb each other's draws. Timeouts for
// simulator-driven protocols ride the virtual clock (RetryAsync /
// Watchdog over a Clock), so chaos runs are reproducible bit-for-bit.
package resilience

import (
	"errors"
	"fmt"
	"time"

	"decoupling/internal/telemetry"
)

// Mode is a degradation policy.
type Mode int

const (
	// FailClosed (the default) errors out when every decoupled path is
	// exhausted. Availability is sacrificed before privacy.
	FailClosed Mode = iota
	// FailOpen marks a policy whose owner intends to degrade to a
	// direct path after exhaustion. The package still returns an error
	// — the caller performs the (re-coupling) fallback — but the
	// exhaustion is counted under mode="fail-open" so audits can see
	// it. Exists for the E16 counterexample; do not deploy.
	FailOpen
)

func (m Mode) String() string {
	if m == FailOpen {
		return "fail-open"
	}
	return "fail-closed"
}

// ErrExhausted wraps the final error when an operation runs out of
// attempts or endpoints.
var ErrExhausted = errors.New("resilience: all decoupled paths exhausted")

// Policy bundles the retry knobs for one protocol client.
type Policy struct {
	// Protocol labels telemetry series ("odoh", "mixnet"...).
	Protocol string
	// MaxAttempts is the total attempt budget across all endpoints
	// (<= 0 means exactly one attempt).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// JitterFrac adds up to this fraction of the capped backoff as
	// deterministic jitter (decorrelates retry storms without an RNG).
	JitterFrac float64
	// Timeout is the per-attempt watchdog used by RetryAsync.
	Timeout time.Duration
	// Mode is the degradation policy; the zero value is FailClosed.
	Mode Mode
}

// Default returns the stock fail-closed policy used by the protocol
// stacks: 4 attempts, 10ms..160ms exponential backoff with 25% jitter,
// 250ms per-attempt timeout.
func Default(protocol string) Policy {
	return Policy{
		Protocol:    protocol,
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    160 * time.Millisecond,
		JitterFrac:  0.25,
		Timeout:     250 * time.Millisecond,
		Mode:        FailClosed,
	}
}

// Backoff returns the delay before retry number attempt (attempt >= 1).
// The schedule is capped exponential with deterministic jitter: the
// same (policy, seed, attempt) triple always yields the same delay.
func (p Policy) Backoff(seed uint64, attempt int) time.Duration {
	if attempt < 1 || p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.JitterFrac > 0 {
		u := float64(telemetry.Mix64(seed^uint64(attempt))%(1<<20)) / (1 << 20) // [0, 1)
		d += time.Duration(float64(d) * p.JitterFrac * u)
	}
	return d
}

// Sleeper abstracts how a synchronous retry loop waits. Protocols not
// on the simulator pass nil (backoff windows are logical); simulator
// tests can pass a closure advancing the virtual clock.
type Sleeper func(time.Duration)

// Do runs op with retries under the policy. The attempt number (0-based)
// is passed through; retries and exhaustions feed counters.
func Do(p Policy, tel *telemetry.Telemetry, seed uint64, sleep Sleeper, op func(attempt int) error) error {
	_, err := DoFailover(p, tel, seed, sleep, 1, func(attempt, _ int) error { return op(attempt) })
	return err
}

// DoFailover runs op with retries across n interchangeable endpoints
// (proxies, relays, aggregators): a failed attempt rotates to the next
// endpoint before retrying. It returns the endpoint that succeeded.
// MaxAttempts is the TOTAL budget, not per-endpoint. On exhaustion the
// returned error wraps ErrExhausted; under FailClosed that is final by
// contract — callers must not degrade to a direct path.
func DoFailover(p Policy, tel *telemetry.Telemetry, seed uint64, sleep Sleeper, n int, op func(attempt, endpoint int) error) (int, error) {
	if n <= 0 {
		return -1, fmt.Errorf("%w: no endpoints configured (%s)", ErrExhausted, p.Protocol)
	}
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	proto := telemetry.A("protocol", p.Protocol)
	endpoint := 0
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			tel.Count(telemetry.MetricRetries, "Retried attempts per protocol.", 1, proto)
			if d := p.Backoff(seed, attempt); d > 0 && sleep != nil {
				sleep(d)
			}
		}
		err := op(attempt, endpoint)
		if err == nil {
			return endpoint, nil
		}
		lastErr = err
		if n > 1 && attempt < attempts-1 {
			endpoint = (endpoint + 1) % n
			tel.Count(telemetry.MetricFailovers, "Endpoint failovers per protocol.", 1, proto)
		}
	}
	return endpoint, exhausted(p, tel, lastErr)
}

// exhausted counts and wraps an exhaustion under the policy's mode.
func exhausted(p Policy, tel *telemetry.Telemetry, lastErr error) error {
	tel.Count(telemetry.MetricExhausted, "Operations that exhausted every decoupled path.", 1,
		telemetry.A("protocol", p.Protocol), telemetry.A("mode", p.Mode.String()))
	return fmt.Errorf("%w (%s, %s): %v", ErrExhausted, p.Protocol, p.Mode, lastErr)
}

// Clock is the virtual-clock surface the asynchronous helpers need;
// *simnet.Network and every transport.Transport satisfy it. After's
// stop returns true exactly when fn had not started and now never
// will (false once it has started, on a second call, or for a timer
// that was never armed), and a stopped timer no longer counts as
// pending work.
type Clock interface {
	Now() time.Duration
	After(d time.Duration, fn func()) (stop func() bool)
}

// Watchdog arms a one-shot timeout on the clock: if done() is still
// false when timeout elapses, the timeout is counted and onTimeout
// runs. Deterministic on the virtual clock.
func Watchdog(c Clock, tel *telemetry.Telemetry, protocol string, timeout time.Duration, done func() bool, onTimeout func()) {
	c.After(timeout, func() {
		if done() {
			return
		}
		tel.Count(telemetry.MetricTimeouts, "Per-attempt timeouts per protocol.", 1,
			telemetry.A("protocol", protocol))
		onTimeout()
	})
}

// RetryAsync drives a fire-and-forget operation (a mixnet send, an
// onion request) under the policy, entirely on the virtual clock:
// start(attempt) launches an attempt; if done() is still false after
// Policy.Timeout, the watchdog backs off and starts the next attempt.
// A start() that errors immediately (ErrNodeDown from the simulator)
// retries on the same schedule without waiting out the timeout; a
// started attempt's timeout is a Watchdog. When the attempts run out
// and done() still fails, fail(err) runs with an error wrapping
// ErrExhausted.
func RetryAsync(c Clock, tel *telemetry.Telemetry, p Policy, seed uint64, start func(attempt int) error, done func() bool, fail func(error)) {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = 250 * time.Millisecond
	}
	proto := telemetry.A("protocol", p.Protocol)
	var try func(attempt int, lastErr error)
	next := func(attempt int, lastErr error) {
		if attempt+1 >= attempts {
			if fail != nil {
				fail(exhausted(p, tel, lastErr))
			}
			return
		}
		tel.Count(telemetry.MetricRetries, "Retried attempts per protocol.", 1, proto)
		d := p.Backoff(seed, attempt+1)
		c.After(d, func() { try(attempt+1, lastErr) })
	}
	try = func(attempt int, lastErr error) {
		if done() {
			return
		}
		if err := start(attempt); err != nil {
			next(attempt, err)
			return
		}
		Watchdog(c, tel, p.Protocol, timeout, done, func() {
			next(attempt, fmt.Errorf("attempt %d timed out after %s", attempt, timeout))
		})
	}
	try(0, nil)
}
