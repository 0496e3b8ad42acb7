package experiments

import (
	"crypto/rsa"
	"sync"

	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/simnet"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
	"decoupling/internal/transport"
)

// Ctx is the execution context threaded through every experiment: the
// telemetry handle plus an optional hook over simulated-network
// construction. The zero value is valid (no telemetry, no hook) and is
// what tests use; the runner passes its telemetry, wire plane and
// worker pool; the schedule explorer passes WithNetHook to install
// schedulers on each net an experiment builds and harvest their
// recorded schedules afterwards.
type Ctx struct {
	// Tel is the experiment's telemetry handle (nil when observability
	// is off; all telemetry methods are nil-receiver safe).
	Tel *telemetry.Telemetry

	// Wire is the run's wire-trace plane (nil when tracing is off; all
	// plane methods are nil-receiver safe). Scenario runners attach it
	// to every protocol component they build, so traced runs produce
	// per-vantage span stores the trace-plane audit can replay.
	Wire *wiretrace.Plane

	hooks *netHooks

	// transport, when set, overrides what NewRunner builds — the lever
	// the differential transport-equivalence suite pulls to run the
	// same experiment over real loopback sockets instead of the
	// simulator.
	transport func(seed int64) transport.Runner

	// pool, when set, is the Runner's worker pool, on which Each queues
	// its parts and which holds the run's signing key.
	pool *pool
}

// Each runs fn(0) … fn(n-1) as independent parts of the experiment and
// waits for all of them. Under a Runner the parts are queued on its
// worker pool: a free worker takes a queued part before the next
// experiment, and the calling experiment runs its still-queued parts
// itself while it waits, so Runner.Workers still bounds the goroutines
// running experiment code. Outside a Runner the parts run in index
// order on the caller. A panic in a part becomes that part's error.
// Each returns the error with the lowest index, or nil.
//
// Parts may run concurrently, so each must touch only state it owns or
// that is safe for concurrent use: a part may bump counters and write
// a ledger that no other part writes. A part must not open phases,
// build networks through the Ctx, or write the wire plane: the phase
// marker is one stack per experiment, and nets and wire spans are
// numbered per experiment in call order; neither may depend on the
// worker count.
func (c Ctx) Each(n int, fn func(i int) error) error {
	if c.pool != nil {
		return c.pool.each(n, fn)
	}
	errs := make([]error, n)
	for i := range errs {
		errs[i] = callPart(fn, i)
	}
	return firstError(errs)
}

// SigningKey returns a keyBits blind-RSA signing key. Under a Runner
// every experiment of one Run gets the same key, generated on the first
// request, so a run pays for one key generation. Sharing is safe:
// signers only read the key, and no experiment redeems another's tokens
// or coins. Outside a Runner each call generates a fresh key.
func (c Ctx) SigningKey() (*rsa.PrivateKey, error) {
	if c.pool != nil {
		return c.pool.signingKey()
	}
	return blindrsa.GenerateKey(keyBits)
}

// netHooks is the shared hook state behind a Ctx. It lives behind a
// pointer so Ctx stays a copyable value while construction indices stay
// globally ordered, and it is mutex-guarded because scenario runners
// may construct nets from parallel client goroutines.
type netHooks struct {
	mu   sync.Mutex
	next int
	hook func(index int, n *simnet.Network)
}

// WithNetHook returns a Ctx that invokes hook on every simulated
// network the experiment constructs through NewNet, in construction
// order (index 0, 1, ...). The hook runs before the experiment touches
// the net, so it can install a Scheduler or ReplaySchedule; keeping the
// *simnet.Network lets the caller read RecordedSchedule after the run.
func WithNetHook(tel *telemetry.Telemetry, hook func(index int, n *simnet.Network)) Ctx {
	return Ctx{Tel: tel, hooks: &netHooks{hook: hook}}
}

// NewRunner constructs the experiment's next network as an abstract
// transport.Runner: the simulator by default (through NewNet, so
// schedule-explorer hooks still see it), or whatever the transport
// factory builds. Callers own the result and should Close it.
func (c Ctx) NewRunner(seed int64) transport.Runner {
	if c.transport != nil {
		return c.transport(seed)
	}
	return c.NewNet(seed)
}

// NewNet constructs the experiment's next simulated network. All
// experiment code must build nets through this (never simnet.New
// directly) so a schedule-exploring Ctx sees every decision point.
func (c Ctx) NewNet(seed int64) *simnet.Network {
	n := simnet.New(seed)
	if c.hooks != nil {
		c.hooks.mu.Lock()
		idx := c.hooks.next
		c.hooks.next++
		hook := c.hooks.hook
		c.hooks.mu.Unlock()
		if hook != nil {
			hook(idx, n)
		}
	}
	return n
}
