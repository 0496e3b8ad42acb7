// Package nettransport implements the transport.Transport contract
// over real loopback sockets: one persistent TCP stream per
// destination. It is the production-shaped counterpart to
// internal/simnet — concurrent handler dispatch, a writer goroutine per
// destination, batched writes, wall clocks — carrying the same ledger
// observation and telemetry hooks, so knowledge-tuple derivation and
// provenance audits run unchanged over real sockets.
//
// What it guarantees, and what it does not, versus the simulator:
//
//   - Per-node serialization holds: each registered node has one
//     dispatcher goroutine, so a node's handler (and the timers it arms
//     through its Transport) never races itself. Protocol state like a
//     mix's batch queue stays lock-free on both transports.
//   - Per-destination FIFO holds: one stream, one writer per
//     destination.
//   - Delivery is reliable: a frame the wire or an injected fault eats
//     is counted as lost, and Run bounds its wait with a stall timeout.
//   - Nothing is deterministic: scheduling, latencies, and Rand
//     interleavings vary run to run. Equivalence with the simulator is
//     semantic — identical knowledge tuples, verdicts, and canonical
//     audits — never byte-identical traces. The differential suite in
//     internal/experiments holds exactly that line.
package nettransport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/resilience"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
	"decoupling/internal/transport"
)

// Mode names the wire the transport moves frames over. TCP is the only
// wire; the type and its one value remain so that callers which name
// the wire explicitly (Options{Mode: ModeTCP}) keep compiling.
type Mode int

// ModeTCP uses one persistent loopback TCP stream per destination:
// reliable, per-destination FIFO. It is the zero value.
const ModeTCP Mode = 0

// Writer and quiescence bounds.
const (
	// batchBytes caps how many queued frames a writer coalesces into a
	// single socket write.
	batchBytes = 32 << 10
	// stallTimeout bounds how long Run waits without any delivery or
	// loss progress before giving up on in-flight work.
	stallTimeout = 5 * time.Second
)

// ErrClosed is returned by Send after Close: the transport fails
// closed — traffic is refused, never rerouted around the dead network.
var ErrClosed = errors.New("nettransport: transport closed")

// Options configures a Net. The zero value is usable: TCP, seed 0,
// capture on.
type Options struct {
	// Mode is the wire; ModeTCP, the zero value, is the only one.
	Mode Mode
	// Seed feeds the Rand stream protocol code draws shuffles and
	// route picks from.
	Seed int64
	// InboxDepth bounds each node's dispatch queue; senders feel
	// backpressure beyond it. 0 means 4096. The depth is a bound, not an
	// allocation: the queue's storage grows with its backlog.
	InboxDepth int
	// DisableCapture turns off the passive-observer packet log. The
	// million-client loadgen sweep sets it; everything audit-shaped
	// leaves it on.
	DisableCapture bool
	// OutDepth bounds each destination's writer queue. 0 means 4096. Like
	// InboxDepth it is a bound, not an allocation. Chaos runs shrink it
	// to make overload reachable at test scale.
	OutDepth int
	// ShedAfter bounds how long a send may wait on a full writer queue
	// (and a delivery on a full inbox) before the frame is shed: the
	// sender gets a typed error wrapping faults.ErrShed and the drop is
	// counted, never silent. 0 keeps the legacy block-forever behavior.
	ShedAfter time.Duration
}

// item is one unit of dispatcher work: a delivered datagram, or (tm
// set) the fire of a timer the node armed.
type item struct {
	msg transport.Message
	tm  *timer
}

// timer is one armed After. Its pending unit is released exactly once,
// by whichever of its fire, its stop or its cancellation (a crash, a
// closed transport) claims it first, and fn runs only if the fire
// claimed it.
type timer struct {
	fn func()
	// epoch is the owning node's crash epoch when the timer was armed:
	// a timer armed before its owner crashed must not fire after (or
	// across) the crash — the wall-clock analogue of simnet cancelling
	// a crashed node's queue events. Unused for timers armed outside a
	// handler.
	epoch   uint64
	wt      *time.Timer
	claimed atomic.Bool
}

func (tm *timer) claim() bool { return tm.claimed.CompareAndSwap(false, true) }

// neverArmed is the stop of a timer After refused to arm.
func neverArmed() bool { return false }

type node struct {
	addr  transport.Addr
	inbox *fifo[item]

	// out is the node's writer queue, drained by the one writer that
	// streams to the node: created with the writer on first use and
	// read lock-free after.
	outOnce sync.Once
	out     *fifo[wireItem]

	// depthGauge mirrors the inbox depth seen by the dispatcher; only
	// the node's single dispatcher goroutine reads or writes the field,
	// so it needs no lock.
	depthGauge *telemetry.Gauge

	hmu sync.Mutex
	h   transport.Handler

	// Endpoint state. lnErr records a failed listener setup; sends to
	// the node surface it. endpointMu guards the mutable fields across
	// crash/restart transitions.
	endpointMu sync.Mutex
	tcpLn      net.Listener
	dialTo     string
	lnErr      error

	// Crash-window state: down refuses sends and drops deliveries;
	// epoch increments at every down transition, invalidating timers
	// armed before the crash.
	down  atomic.Bool
	epoch atomic.Uint64
}

func (n *node) isDown() bool { return n.down.Load() }

func (n *node) handler() transport.Handler {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	return n.h
}

func (n *node) setHandler(h transport.Handler) {
	n.hmu.Lock()
	n.h = h
	n.hmu.Unlock()
}

// wireItem is one unit of writer work: an encoded frame, plus any
// fault flavoring decided at the codec boundary — a writer-side delay
// (latency spike) or a poison (write a partial header then reset the
// stream). A poison item carries a frame already accounted as an
// injected drop; it exists to make the loss observable on the wire,
// not to deliver.
type wireItem struct {
	frame  []byte
	delay  time.Duration
	poison bool
}

// Net is a real loopback transport. Construct with New; Close releases
// sockets and goroutines.
type Net struct {
	opts  Options
	start time.Time
	stop  chan struct{}

	closed atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	mu    sync.Mutex
	nodes map[transport.Addr]*node

	// pending counts accepted-but-not-finished work: datagrams from
	// Send acceptance to handler completion, timers from arming until
	// they fire, are stopped or are cancelled. Run quiesces on it
	// reaching zero.
	pending   atomic.Int64
	delivered atomic.Uint64
	lost      atomic.Uint64

	// Fault-layer state: the merged injected plan (nil when fault-free;
	// swapped whole so the send path reads one atomic pointer), the
	// deterministic per-link loss-draw counters, and the chaos
	// accounting. transMu serializes crash/restart transitions against
	// Close so no goroutine starts after wg.Wait.
	plan       atomic.Pointer[faults.Plan]
	lossMu     sync.Mutex
	lossSeq    map[[2]transport.Addr]uint64
	transMu    sync.Mutex
	faultDrops atomic.Uint64
	shed       atomic.Uint64
	reconnects atomic.Uint64

	capMu   sync.Mutex
	capture []transport.PacketRecord

	telMu sync.Mutex
	tel   *telemetry.Telemetry

	// instr holds cached wall-clock metric handles so the send and
	// dispatch hot paths never take the registry's registration lock.
	// Nil until Instrument attaches a sink with a metrics registry; all
	// handle methods are nil-safe, so uninstrumented runs pay one
	// atomic pointer load.
	instr atomic.Pointer[netInstr]

	wg sync.WaitGroup
}

var _ transport.Runner = (*Net)(nil)

// New creates a transport with the given options. Nodes come into
// existence on Register.
func New(opts Options) *Net {
	if opts.InboxDepth <= 0 {
		opts.InboxDepth = 4096
	}
	if opts.OutDepth <= 0 {
		opts.OutDepth = 4096
	}
	return &Net{
		opts:  opts,
		start: time.Now(),
		stop:  make(chan struct{}),
		rng:   rand.New(rand.NewSource(opts.Seed)),
		nodes: map[transport.Addr]*node{},
	}
}

// netInstr is the cached-handle bundle behind the live transport
// metrics: frames/bytes queued, writer-queue stalls, timer fires, and
// the pending-work level.
type netInstr struct {
	tel        *telemetry.Telemetry
	framesSent *telemetry.Counter
	bytesSent  *telemetry.Counter
	stalls     *telemetry.Counter
	timerFires *telemetry.Counter
	pending    *telemetry.Gauge
}

// Instrument attaches a telemetry sink: deliveries feed per-link
// message/byte counters, and — when the sink carries a metrics
// registry — the transport's internals (frames/bytes sent, writer
// stalls, timer fires, pending level, per-node inbox depth) surface as
// live wall-clock series. A nil tel is a no-op.
func (t *Net) Instrument(tel *telemetry.Telemetry) {
	t.telMu.Lock()
	t.tel = tel
	t.telMu.Unlock()
	if tel == nil || tel.Metrics() == nil {
		t.instr.Store(nil)
		return
	}
	m := tel.Metrics()
	// The series keep a mode="tcp" label so existing scrapes and
	// dashboards keep matching them.
	labels := append(tel.BaseLabels(), telemetry.A("mode", "tcp"))
	t.instr.Store(&netInstr{
		tel:        tel,
		framesSent: m.Counter(telemetry.MetricTransportFramesSent, "Frames queued for the wire per mode.", labels...),
		bytesSent:  m.Counter(telemetry.MetricTransportBytesSent, "Encoded frame bytes queued for the wire per mode.", labels...),
		stalls:     m.Counter(telemetry.MetricTransportWriterStall, "Sends that blocked on a full writer queue.", labels...),
		timerFires: m.Counter(telemetry.MetricTransportTimerFires, "Transport timers fired.", labels...),
		pending:    m.Gauge(telemetry.MetricTransportPending, "In-flight work: queued frames, running handlers, armed timers.", labels...),
	})
}

func (t *Net) telemetrySink() *telemetry.Telemetry {
	t.telMu.Lock()
	defer t.telMu.Unlock()
	return t.tel
}

// Now returns elapsed wall time since construction — the transport's
// clock, analogous to simnet's virtual Now.
func (t *Net) Now() time.Duration { return time.Since(t.start) }

// Rand returns a pseudo-random int in [0, max) from the seeded stream.
// Unlike the simulator's, draws from concurrent handlers interleave
// nondeterministically; protocol decisions stay well-distributed but
// not replayable.
func (t *Net) Rand(max int) int {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.rng.Intn(max)
}

// Register attaches a handler to addr, creating the node: its
// listening socket, reader, and the single dispatcher goroutine that
// serializes its handler. Registering an existing address replaces the
// handler only.
func (t *Net) Register(addr transport.Addr, h transport.Handler) {
	t.mu.Lock()
	if n := t.nodes[addr]; n != nil {
		t.mu.Unlock()
		n.setHandler(h)
		return
	}
	n := &node{addr: addr, inbox: newFIFO[item](t.opts.InboxDepth), h: h}
	t.nodes[addr] = n
	t.mu.Unlock()

	t.listen(n)
	t.wg.Add(1)
	go t.dispatch(n)
}

// listen opens the node's endpoint and starts its acceptor. Loopback
// listen failures are environmental; they are recorded and surfaced by
// sends to this node.
func (t *Net) listen(n *node) {
	if err := t.bind(n, ""); err != nil {
		n.lnErr = err
	}
}

// bind opens (or, for a crash restart, re-opens) the node's listener
// and starts its acceptor. An empty addr binds an ephemeral loopback
// port and records it; a non-empty addr rebinds the recorded port so
// peers' dial targets survive the restart. The caller holds no lock;
// the acceptor and its readers are wg-tracked.
func (t *Net) bind(n *node, addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	n.endpointMu.Lock()
	n.tcpLn = ln
	n.dialTo = ln.Addr().String()
	n.endpointMu.Unlock()
	t.wg.Add(1)
	go t.acceptTCP(n, ln)
	return nil
}

// dispatch is a node's single dispatcher: every inbound datagram and
// every owned timer runs here, serialized — the same guarantee the
// simulator's event loop gives its handlers.
func (t *Net) dispatch(n *node) {
	defer t.wg.Done()
	view := &nodeView{t: t, n: n}
	for {
		select {
		case <-t.stop:
			return
		case <-n.inbox.ready:
			it := n.inbox.take()
			ih := t.instr.Load()
			if ih != nil {
				if n.depthGauge == nil {
					n.depthGauge = ih.tel.Metrics().Gauge(telemetry.MetricTransportInboxDepth,
						"Dispatch-queue depth per node, sampled at dequeue.",
						append(ih.tel.BaseLabels(), telemetry.A("node", string(n.addr)))...)
				}
				n.depthGauge.Set(float64(len(n.inbox.ready)))
			}
			if tm := it.tm; tm != nil {
				if !tm.claim() {
					// Stopped after its fire was queued; stop released
					// its pending unit.
					continue
				}
				if ih != nil {
					ih.timerFires.Add(1)
				}
				// A timer owned by a node that crashed after arming it is
				// cancelled: the epoch moved (or the node is still down).
				if !n.isDown() && tm.epoch == n.epoch.Load() {
					tm.fn()
				}
				t.finish(1)
				continue
			}
			if n.isDown() {
				// Raced a crash transition: treat like any other inbound
				// datagram to a crashed node.
				t.dropInjected(1, "crash")
				continue
			}
			t.recordDelivery(it.msg)
			if h := n.handler(); h != nil {
				h(view, it.msg)
			}
			t.finish(1)
		}
	}
}

// finish releases n units of pending work and mirrors the new level
// into the pending gauge when instrumented.
func (t *Net) finish(n int64) {
	level := t.pending.Add(-n)
	if ih := t.instr.Load(); ih != nil {
		ih.pending.Set(float64(level))
	}
}

func (t *Net) recordDelivery(msg transport.Message) {
	t.delivered.Add(1)
	if !t.opts.DisableCapture {
		t.capMu.Lock()
		t.capture = append(t.capture, transport.PacketRecord{
			Time: t.Now(), Src: msg.Src, Dst: msg.Dst, Size: len(msg.Payload),
		})
		t.capMu.Unlock()
	}
	if tel := t.telemetrySink(); tel != nil {
		src, dst := telemetry.A("src", string(msg.Src)), telemetry.A("dst", string(msg.Dst))
		tel.Count(telemetry.MetricTransportMessages, "Datagrams delivered per link (real transport).", 1, src, dst)
		tel.Count(telemetry.MetricTransportBytes, "Payload bytes delivered per link (real transport).", uint64(len(msg.Payload)), src, dst)
	}
}

// countLost accounts n lost frames without touching pending. Organic
// losses (the wire ate it: write errors, failed dials, closed
// transport) and injected ones (the fault plan ate it) land under the
// same lost total — retry logic cares only that the message is gone —
// but carry distinct metric labels, so a chaos run never masquerades
// as wire flakiness in /metrics.
func (t *Net) countLost(n int, reason string, injected bool) {
	t.lost.Add(uint64(n))
	tel := t.telemetrySink()
	if injected {
		t.faultDrops.Add(uint64(n))
		if tel != nil {
			tel.Count(telemetry.MetricTransportFaultDrops, "Datagrams dropped by injected faults (real transport).", uint64(n),
				telemetry.A("reason", reason))
		}
		reason = "injected:" + reason
	}
	if tel != nil {
		tel.Count(telemetry.MetricTransportLost, "Datagrams lost on the real transport.", uint64(n),
			telemetry.A("reason", reason))
	}
}

// dropFrames accounts n in-flight frames the wire ate (write error,
// closed transport, unroutable destination) and releases their pending
// units.
func (t *Net) dropFrames(n int, reason string) {
	if n <= 0 {
		return
	}
	t.countLost(n, reason, false)
	t.finish(int64(n))
}

// dropInjected is dropFrames for in-flight frames an injected fault
// ate (a crashed destination, a drained inbox).
func (t *Net) dropInjected(n int, reason string) {
	if n <= 0 {
		return
	}
	t.countLost(n, reason, true)
	t.finish(int64(n))
}

// shedFrame accounts one shed under overload: counted, surfaced in
// metrics, and — on the send side — returned to the caller as a typed
// error. Never silent.
func (t *Net) shedFrame(where string) {
	t.shed.Add(1)
	if tel := t.telemetrySink(); tel != nil {
		tel.Count(telemetry.MetricTransportShed, "Frames shed under overload instead of blocking.", 1,
			telemetry.A("where", where))
	}
	t.dropFrames(1, "shed")
}

// Send encodes a frame and queues it on the destination's writer. It
// fails fast on unregistered destinations and fails closed (ErrClosed)
// after Close; queued frames travel the real wire and are delivered by
// the destination node's dispatcher.
func (t *Net) Send(src, dst transport.Addr, payload []byte) error {
	return t.SendTraced(src, dst, payload, wiretrace.Context{})
}

// SendTraced is Send with a wire-trace context riding in the frame
// codec's v2 trace extension — out-of-band of the payload, so traced
// and untraced frames carry byte-identical payloads.
func (t *Net) SendTraced(src, dst transport.Addr, payload []byte, ctx wiretrace.Context) error {
	if t.closed.Load() {
		return fmt.Errorf("nettransport: send %s->%s: %w", src, dst, ErrClosed)
	}
	t.mu.Lock()
	n, ok := t.nodes[dst]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("nettransport: send to unregistered node %q", dst)
	}
	if n.lnErr != nil {
		return fmt.Errorf("nettransport: send to %q: %w", dst, n.lnErr)
	}
	frame, err := AppendFrame(nil, transport.Message{Src: src, Dst: dst, Payload: payload, Trace: ctx})
	if err != nil {
		return err
	}
	// The frame exists; the fault plan now decides its fate at the
	// codec boundary, mirroring simnet's Send-time order: crashed
	// destination fails fast, crashed source fails fast, partitions
	// drop silently, burst loss drops with a stream reset on the wire,
	// spikes ride on the writer.
	it := wireItem{frame: frame}
	if n.isDown() {
		t.countLost(1, "crash", true)
		return fmt.Errorf("nettransport: send %s->%s: %w", src, dst, faults.ErrNodeDown)
	}
	if pl := t.plan.Load(); pl != nil {
		t.mu.Lock()
		srcNode := t.nodes[src]
		t.mu.Unlock()
		if srcNode != nil && srcNode.isDown() {
			return fmt.Errorf("nettransport: send %s->%s: source %w", src, dst, faults.ErrNodeDown)
		}
		now := t.Now()
		if pl.PartitionedAt(src, dst, now) {
			t.countLost(1, "partition", true)
			return nil // partitions are silent: only timeouts notice
		}
		if burst := pl.LossAt(src, dst, now); burst > 0 {
			t.lossMu.Lock()
			if t.lossSeq == nil {
				t.lossSeq = map[[2]transport.Addr]uint64{}
			}
			seq := t.lossSeq[[2]transport.Addr{src, dst}]
			t.lossSeq[[2]transport.Addr{src, dst}] = seq + 1
			t.lossMu.Unlock()
			if faults.LossDraw(t.opts.Seed, src, dst, seq) < burst {
				// Injected drop. Deterministic (same draw stream as
				// simnet), accounted here; the writer then makes it
				// hurt the way a TCP wire fails: the stream resets
				// mid-frame.
				t.countLost(1, "loss", true)
				t.offerPoison(n, frame)
				return nil // silently dropped, as the wire would
			}
		}
		it.delay = pl.SpikeAt(src, dst, now)
	}
	q := t.queueFor(n)
	level := t.pending.Add(1)
	ih := t.instr.Load()
	if ih != nil {
		ih.framesSent.Add(1)
		ih.bytesSent.Add(uint64(len(frame)))
		ih.pending.Set(float64(level))
	}
	// Fast path: queue has room. Falling through to the blocking wait is
	// a writer-queue stall — the wire (or its writer) is not keeping up
	// with producers — which the live plane counts.
	select {
	case q.slots <- struct{}{}:
		q.put(it)
		return nil
	default:
	}
	if ih != nil {
		ih.stalls.Add(1)
	}
	if t.opts.ShedAfter > 0 {
		timer := time.NewTimer(t.opts.ShedAfter)
		defer timer.Stop()
		select {
		case q.slots <- struct{}{}:
			q.put(it)
			return nil
		case <-timer.C:
			t.shedFrame("send")
			return fmt.Errorf("nettransport: send %s->%s: %w", src, dst, faults.ErrShed)
		case <-t.stop:
			t.dropFrames(1, "closed")
			return fmt.Errorf("nettransport: send %s->%s: %w", src, dst, ErrClosed)
		}
	}
	select {
	case q.slots <- struct{}{}:
		q.put(it)
		return nil
	case <-t.stop:
		t.dropFrames(1, "closed")
		return fmt.Errorf("nettransport: send %s->%s: %w", src, dst, ErrClosed)
	}
}

// offerPoison best-effort enqueues a poison item for frame so an
// injected drop is visible on the wire. The loss is already accounted;
// if the writer queue is saturated the wire symptom is skipped, never
// the accounting.
func (t *Net) offerPoison(n *node, frame []byte) {
	q := t.queueFor(n)
	select {
	case q.slots <- struct{}{}:
		q.put(wireItem{frame: frame, poison: true})
	default:
	}
}

// queueFor returns the writer queue of destination n, starting its
// writer on first use. One writer per stream preserves per-destination
// FIFO.
func (t *Net) queueFor(n *node) *fifo[wireItem] {
	n.outOnce.Do(func() {
		n.out = newFIFO[wireItem](t.opts.OutDepth)
		t.wg.Add(1)
		go t.tcpWriter(n)
	})
	return n.out
}

// work is one drained unit of writer work: either a coalesced batch of
// plain frames (optionally delayed by a latency spike — the delay is
// head-of-line, as a slow stream would be) or a single poison item
// making an injected drop observable on the wire.
type work struct {
	batch  []byte
	count  int
	delay  time.Duration
	poison bool
	frame  []byte // victim frame for the poison's wire symptom
}

// nextWork blocks for one item then coalesces whatever plain frames
// are queued, up to batchBytes, into a single write. Special items
// (poison, delayed) never coalesce: one pulled mid-batch is stashed
// for the next call so nothing reorders. ok is false on shutdown.
func (t *Net) nextWork(q *fifo[wireItem], stash *wireItem, stashed *bool) (w work, ok bool) {
	var first wireItem
	if *stashed {
		first, *stashed = *stash, false
	} else {
		select {
		case <-t.stop:
			return work{}, false
		case <-q.ready:
			first = q.take()
		}
	}
	if first.poison {
		return work{poison: true, frame: first.frame}, true
	}
	w = work{batch: first.frame, count: 1, delay: first.delay}
	if w.delay > 0 {
		return w, true
	}
	for len(w.batch) < batchBytes {
		select {
		case <-q.ready:
			f := q.take()
			if f.poison || f.delay > 0 {
				*stash, *stashed = f, true
				return w, true
			}
			w.batch = append(w.batch, f.frame...)
			w.count++
		default:
			return w, true
		}
	}
	return w, true
}

// sleepOrStop sleeps d (a spike delay, a reconnect backoff) unless the
// transport stops first; reports whether the sleep completed.
func (t *Net) sleepOrStop(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-t.stop:
		return false
	}
}

// dialRetry is the capped-jittered backoff writers use to re-establish
// a stream after a reset or a crashed destination's restart window.
var dialRetry = resilience.Policy{
	Protocol:    "nettransport-dial",
	MaxAttempts: 8,
	BaseDelay:   2 * time.Millisecond,
	MaxDelay:    250 * time.Millisecond,
	JitterFrac:  0.25,
}

func (t *Net) tcpWriter(n *node) {
	defer t.wg.Done()
	var conn net.Conn
	var stash wireItem
	var stashed, everConnected bool
	seed := uint64(t.opts.Seed) ^ uint64(len(n.addr))
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		w, ok := t.nextWork(n.out, &stash, &stashed)
		if !ok {
			return
		}
		if w.poison {
			// Injected loss, TCP flavor: the victim frame dies mid-wire.
			// Write just the header so the reader stalls inside the
			// frame body, then reset the stream (SO_LINGER 0 turns the
			// close into an RST). The next batch reconnects.
			if conn != nil {
				_, _ = conn.Write(w.frame[:frameHeader])
				if tc, okc := conn.(*net.TCPConn); okc {
					_ = tc.SetLinger(0)
				}
				conn.Close()
				conn = nil
			}
			continue
		}
		if n.isDown() {
			// In-flight frames to a crashed destination die as fault
			// drops, same as simnet dropping inbound at delivery time.
			t.dropInjected(w.count, "crash")
			continue
		}
		if !t.sleepOrStop(w.delay) {
			t.dropFrames(w.count, "closed")
			return
		}
		if conn == nil {
			c, derr := t.dialBackoff(n, seed)
			if derr != nil {
				t.dropFrames(w.count, "dial")
				continue
			}
			conn = c
			if everConnected {
				t.noteReconnect(n)
			}
			everConnected = true
		}
		if _, err := conn.Write(w.batch); err != nil {
			conn.Close()
			conn = nil
			t.dropFrames(w.count, "write")
		}
	}
}

// dialBackoff dials the node's current TCP endpoint with capped,
// jittered, seed-deterministic backoff — riding out a crash window is
// exactly as long as the restart plus one backoff step.
func (t *Net) dialBackoff(n *node, seed uint64) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < dialRetry.MaxAttempts; attempt++ {
		if attempt > 0 && !t.sleepOrStop(dialRetry.Backoff(seed, attempt)) {
			return nil, ErrClosed
		}
		n.endpointMu.Lock()
		target := n.dialTo
		n.endpointMu.Unlock()
		c, err := net.Dial("tcp", target)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// noteReconnect counts one re-established stream.
func (t *Net) noteReconnect(n *node) {
	t.reconnects.Add(1)
	if tel := t.telemetrySink(); tel != nil {
		tel.Count(telemetry.MetricTransportReconnects, "Writer streams re-established after a reset or restart.", 1,
			telemetry.A("dst", string(n.addr)))
	}
}

func (t *Net) acceptTCP(n *node, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readTCP(conn)
	}
}

// readTCP decodes the stream one frame at a time: header first, then
// the exact frame body. Structural corruption drops the connection.
func (t *Net) readTCP(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	header := make([]byte, frameHeader, frameHeaderV2)
	for {
		header = header[:frameHeader]
		if _, err := io.ReadFull(conn, header); err != nil {
			return
		}
		// A v2 frame's length depends on the extension-length byte that
		// follows the common header; pull it before sizing the read.
		if need := headerLen(header); need > len(header) {
			header = header[:need]
			if _, err := io.ReadFull(conn, header[frameHeader:]); err != nil {
				return
			}
		}
		total := FrameLen(header)
		if total < frameHeader || total > frameHeaderV2+MaxTraceExt+2*MaxAddrLen+MaxFramePayload {
			return
		}
		buf := make([]byte, total)
		copy(buf, header)
		if _, err := io.ReadFull(conn, buf[len(header):]); err != nil {
			return
		}
		msg, _, err := DecodeFrame(buf)
		if err != nil {
			return
		}
		t.deliver(msg)
	}
}

// deliver routes one decoded frame to its node's dispatcher. The
// sender's pending count transfers to the dispatcher, which releases
// it after the handler runs.
func (t *Net) deliver(msg transport.Message) {
	if t.closed.Load() {
		t.dropFrames(1, "closed")
		return
	}
	t.mu.Lock()
	n := t.nodes[msg.Dst]
	t.mu.Unlock()
	if n == nil {
		t.dropFrames(1, "unroutable")
		return
	}
	if n.isDown() {
		// A frame that crossed the wire before the destination crashed
		// dies at delivery, exactly where simnet drops inbound to a
		// crashed node.
		t.dropInjected(1, "crash")
		return
	}
	select {
	case n.inbox.slots <- struct{}{}:
		n.inbox.put(item{msg: msg})
		return
	default:
	}
	if t.opts.ShedAfter > 0 {
		// Bounded-inbox overload: wait at most ShedAfter for the
		// dispatcher to drain, then shed — counted and labeled, never a
		// silent drop.
		timer := time.NewTimer(t.opts.ShedAfter)
		defer timer.Stop()
		select {
		case n.inbox.slots <- struct{}{}:
			n.inbox.put(item{msg: msg})
		case <-timer.C:
			t.shedFrame("deliver")
		case <-t.stop:
			t.dropFrames(1, "closed")
		}
		return
	}
	select {
	case n.inbox.slots <- struct{}{}:
		n.inbox.put(item{msg: msg})
	case <-t.stop:
		t.dropFrames(1, "closed")
	}
}

// After schedules fn after delay. Armed outside any handler it runs on
// its own goroutine (the analogue of simnet's owner-less timers);
// handlers arm timers through their nodeView, which serializes them
// with the owning node. stop stops the wall-clock timer and releases
// the timer's pending unit, so Run never waits for a stopped timer.
func (t *Net) After(delay time.Duration, fn func()) (stop func() bool) {
	if t.closed.Load() {
		return neverArmed
	}
	tm := &timer{fn: fn}
	t.pending.Add(1)
	tm.wt = time.AfterFunc(delay, func() {
		if !tm.claim() {
			return
		}
		defer t.finish(1)
		if ih := t.instr.Load(); ih != nil {
			ih.timerFires.Add(1)
		}
		if !t.closed.Load() {
			fn()
		}
	})
	return func() bool { return t.stopTimer(tm) }
}

// stopTimer claims tm for its stop: the wall-clock timer is stopped, a
// fire it already queued in the owner's inbox will be skipped, and the
// pending unit is released here.
func (t *Net) stopTimer(tm *timer) bool {
	if !tm.claim() {
		return false
	}
	tm.wt.Stop()
	t.finish(1)
	return true
}

// Run waits until the transport quiesces — every accepted datagram
// delivered (or lost) and every armed timer fired, stopped or
// cancelled — and returns the number of messages delivered during this
// call. Unlike the simulator, where nothing moves before Run, a real
// wire delivers concurrently with sending: messages handled before Run
// is entered are not in its return value, so callers wanting totals
// read Delivered, not Run's delta. If in-flight work makes no progress
// for stallTimeout, Run stops waiting and returns, so a frame lost
// without being counted cannot hang the caller.
func (t *Net) Run() uint64 {
	startDelivered := t.delivered.Load()
	lastSeen := startDelivered + t.lost.Load()
	lastProgress := time.Now()
	for {
		if t.closed.Load() || t.pending.Load() == 0 {
			break
		}
		time.Sleep(200 * time.Microsecond)
		if cur := t.delivered.Load() + t.lost.Load(); cur != lastSeen {
			lastSeen = cur
			lastProgress = time.Now()
			continue
		}
		if time.Since(lastProgress) > stallTimeout {
			break
		}
	}
	return t.delivered.Load() - startDelivered
}

// Capture returns a copy of the passive observer's packet records
// (empty when DisableCapture is set).
func (t *Net) Capture() []transport.PacketRecord {
	t.capMu.Lock()
	defer t.capMu.Unlock()
	return append([]transport.PacketRecord(nil), t.capture...)
}

// Delivered returns the all-time count of delivered messages.
func (t *Net) Delivered() uint64 { return t.delivered.Load() }

// Lost returns the all-time count of messages the transport ate.
func (t *Net) Lost() uint64 { return t.lost.Load() }

// Pending reports in-flight work (queued frames, running handlers,
// armed timers).
func (t *Net) Pending() int { return int(t.pending.Load()) }

// Close shuts the transport down: subsequent Sends fail closed with
// ErrClosed, listeners and dispatchers stop, and sockets are released.
// In-flight work is dropped, never handed to any fallback path.
func (t *Net) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.stop)
	// Ride out any in-flight crash/restart transition: transitions check
	// closed under transMu before adding goroutines, so once we hold the
	// lock no new endpoint or reader can appear behind our back.
	t.transMu.Lock()
	t.transMu.Unlock()
	t.mu.Lock()
	nodes := make([]*node, 0, len(t.nodes))
	for _, n := range t.nodes {
		nodes = append(nodes, n)
	}
	t.mu.Unlock()
	for _, n := range nodes {
		n.endpointMu.Lock()
		if n.tcpLn != nil {
			n.tcpLn.Close()
		}
		n.endpointMu.Unlock()
	}
	t.wg.Wait()
	return nil
}

// nodeView is the Transport a node's handler runs against: Sends pass
// through, timers belong to the node — they run on its dispatcher,
// serialized with its handler, mirroring simnet's timer ownership.
type nodeView struct {
	t *Net
	n *node
}

var _ transport.Transport = (*nodeView)(nil)
var _ transport.ContextSender = (*nodeView)(nil)

func (v *nodeView) Send(src, dst transport.Addr, payload []byte) error {
	return v.t.Send(src, dst, payload)
}
func (v *nodeView) SendTraced(src, dst transport.Addr, payload []byte, ctx wiretrace.Context) error {
	return v.t.SendTraced(src, dst, payload, ctx)
}
func (v *nodeView) Register(addr transport.Addr, h transport.Handler) { v.t.Register(addr, h) }
func (v *nodeView) Now() time.Duration                                { return v.t.Now() }
func (v *nodeView) Rand(max int) int                                  { return v.t.Rand(max) }

func (v *nodeView) After(delay time.Duration, fn func()) (stop func() bool) {
	t := v.t
	if t.closed.Load() || v.n.isDown() {
		// A crashed node arms nothing; and any timer armed here carries
		// the node's crash epoch so a later crash cancels it at fire
		// time (simnet cancels the queue events of a crashed owner).
		return neverArmed
	}
	tm := &timer{fn: fn, epoch: v.n.epoch.Load()}
	t.pending.Add(1)
	tm.wt = time.AfterFunc(delay, func() {
		select {
		case v.n.inbox.slots <- struct{}{}:
			v.n.inbox.put(item{tm: tm})
		case <-t.stop:
			if tm.claim() {
				t.finish(1)
			}
		}
	})
	return func() bool { return t.stopTimer(tm) }
}
