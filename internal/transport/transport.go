// Package transport defines the message-transport contract the
// protocol stacks (mixnet, onion, and the simnet-hosted helpers) are
// written against: named endpoints exchanging datagrams, node-local
// timers, a clock, and sanctioned randomness.
//
// Two implementations exist:
//
//   - internal/simnet.Network — the deterministic in-process simulator
//     (virtual clock, seeded RNG, single event loop). Same seed, same
//     schedule, bit-for-bit.
//   - internal/nettransport.Net — real loopback TCP streams, a writer
//     per destination, and wall clocks. Concurrent and
//     non-deterministic, as production infrastructure is.
//
// Protocol code takes the interface, so the same mix, relay, and
// receiver handlers run unchanged over virtual events and over real
// sockets; the differential transport-equivalence tests in
// internal/experiments assert that the knowledge tuples and audit
// verdicts they produce are identical either way. That is the point:
// the paper's decoupling claims are statements about what each entity
// observes, and observation capture must not depend on how bytes move.
package transport

import (
	"time"

	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
)

// Addr names a node on the network.
type Addr string

// Message is a datagram in flight.
type Message struct {
	Src, Dst Addr
	Payload  []byte
	// Trace is the wire-level trace context that rode with the
	// datagram: out-of-band of the payload (it never changes the bytes
	// the ledger hashes), carried by the frame codec's v2 trace
	// extension on the real transport and on the event record in the
	// simulator. Zero when the sender attached none.
	Trace wiretrace.Context
}

// Handler processes a delivered message on behalf of a node. The
// transport guarantees per-node serialization: a node's handler (and
// the timers it arms through the Transport it is handed) never runs
// concurrently with itself, which is what lets protocol state like a
// mix's batch queue stay lock-free. Handlers may call Send/After
// freely but must not block.
type Handler func(t Transport, msg Message)

// PacketRecord is one captured delivery, as seen by a passive global
// observer: metadata only, no payload bytes (encrypted payloads leak
// size and timing, which is precisely what traffic analysis exploits).
type PacketRecord struct {
	Time time.Duration
	Src  Addr
	Dst  Addr
	Size int
}

// Transport is the node-facing surface: everything a protocol handler
// may touch. It is deliberately small — sending, registration, timers,
// clock, and seeded randomness — so both the simulator and the real
// transport can honor the same per-node serialization contract.
//
// Now and After satisfy resilience.Clock, so retry/watchdog policies
// run unchanged on either implementation.
type Transport interface {
	// Send enqueues a datagram from src to dst. Delivery is
	// asynchronous; an error means the transport refused the send
	// (unregistered destination, crashed node, closed transport) —
	// silent loss, where the implementation models it, is not an error.
	Send(src, dst Addr, payload []byte) error
	// Register attaches a handler to addr, creating the node.
	// Registering an existing address replaces its handler.
	Register(addr Addr, h Handler)
	// After schedules fn to run after delay. A timer armed from inside
	// a node's handler belongs to that node: it runs serialized with
	// the node's handler and dies with the node where the
	// implementation models crashes.
	//
	// stop disarms the timer, like time.Timer.Stop: it returns true
	// exactly when fn had not started and now never will, and false
	// once fn has started, on a second call, and for a timer that was
	// never armed (a closed transport, a crashed owner). A stopped
	// timer no longer counts as pending: Run does not wait for it. stop
	// may be called from any goroutine; callers with no use for it
	// ignore the result.
	After(delay time.Duration, fn func()) (stop func() bool)
	// Now returns the transport's clock: virtual time on the
	// simulator, elapsed wall time on the real transport. Handlers and
	// ledgers must use this — never time.Now() — so runs on the
	// simulator stay deterministic.
	Now() time.Duration
	// Rand returns a pseudo-random int in [0, max), from the
	// transport's seeded source. It is the only sanctioned randomness
	// for protocol decisions that must be reproducible on the
	// simulator (shuffles, route picks, chaff schedules).
	Rand(max int) int
}

// ContextSender is the optional wire-tracing surface: a Transport
// that can attach a trace context to a datagram. Both implementations
// provide it; it is split from Transport so the base contract (and
// every existing fake) stays unchanged.
type ContextSender interface {
	// SendTraced is Send with a trace context riding out-of-band of the
	// payload. The delivered Message carries it in its Trace field.
	SendTraced(src, dst Addr, payload []byte, ctx wiretrace.Context) error
}

// SendWithContext sends via SendTraced when the transport supports it
// and a context is present, falling back to plain Send. Protocol code
// uses this so wire tracing degrades to a no-op on transports (or
// test fakes) that don't implement the extension.
func SendWithContext(t Transport, src, dst Addr, payload []byte, ctx wiretrace.Context) error {
	if cs, ok := t.(ContextSender); ok && !ctx.IsZero() {
		return cs.SendTraced(src, dst, payload, ctx)
	}
	return t.Send(src, dst, payload)
}

// Runner is the experiment-facing surface: a Transport plus the
// lifecycle and observability hooks experiments drive. Network (the
// simulator) and nettransport.Net both implement it.
type Runner interface {
	Transport
	// Instrument attaches a telemetry sink. Call before traffic; a nil
	// sink is a no-op.
	Instrument(tel *telemetry.Telemetry)
	// Run processes traffic until the transport quiesces (no queued
	// events, no in-flight datagrams or timers), returning the number
	// of messages delivered during this call.
	Run() uint64
	// Capture returns a copy of the global passive observer's packet
	// records.
	Capture() []PacketRecord
	// Delivered returns the all-time count of delivered messages.
	Delivered() uint64
	// Lost returns the all-time count of messages the transport ate
	// (link loss, injected faults, or real-socket failures).
	Lost() uint64
	// Close shuts the transport down. After Close, Send fails closed
	// with an error; in-flight work is dropped, never rerouted. The
	// simulator's Close is a no-op (it has no sockets to release).
	Close() error
}
