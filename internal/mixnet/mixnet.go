// Package mixnet implements Chaum's mix network (the paper's §3.1.2,
// Figure 1): senders wrap messages in layered public-key encryption;
// each mix strips one layer, collects messages into a batch, shuffles,
// and forwards — decoupling who is sending from what is being received.
//
// The implementation runs over any transport.Transport: the
// deterministic simulator in internal/simnet or real loopback sockets
// in internal/nettransport. Each layer is an HPKE sealed box, so the
// bytes on every hop are cryptographically unrelated to the bytes on
// the next: the linkage handles recorded in the ledger (digests of
// wire bytes) therefore chain only between adjacent hops, which is
// precisely the structure the paper's collusion argument relies on.
//
// Two Chaum defenses are modeled because §4.3 quantifies their cost:
//
//   - batch-and-shuffle forwarding (threshold + timeout) against timing
//     correlation, and
//   - fixed-size message padding against size correlation.
package mixnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/dcrypto/hpke"
	"decoupling/internal/ledger"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
	"decoupling/internal/transport"
)

// Wire layer types.
const (
	layerRelay   byte = 0
	layerDeliver byte = 1
)

// Wire tags: the first byte of every transport payload distinguishes
// forward onions from reply-block traffic (Chaum's untraceable return
// addresses) and final reply deliveries.
const (
	tagOnion        byte = 0x4F // 'O'
	tagReply        byte = 0x52 // 'R'
	tagReplyDeliver byte = 0x44 // 'D'
)

var (
	// ErrMalformedLayer is returned when a decrypted layer cannot be
	// parsed.
	ErrMalformedLayer = errors.New("mixnet: malformed onion layer")
	// ErrPadOverflow is returned when a message exceeds the pad size.
	ErrPadOverflow = errors.New("mixnet: message longer than pad size")
)

const hpkeInfo = "decoupling mixnet layer"

// NodeInfo is the public routing descriptor of a mix or receiver.
type NodeInfo struct {
	Addr   transport.Addr
	PubKey []byte
}

// BuildOnion wraps message for delivery to the receiver through the
// given route of mixes (first hop first). If padTo > 0 the innermost
// plaintext is padded to exactly padTo bytes so all messages entering
// the network are size-indistinguishable.
//
// Layer format (plaintext of each sealed box):
//
//	[type:1][addrlen:2][next addr][inner bytes...]
//
// where type==layerDeliver marks the receiver's own layer.
func BuildOnion(route []NodeInfo, receiver NodeInfo, message []byte, padTo int) ([]byte, error) {
	if len(route) == 0 {
		return nil, errors.New("mixnet: empty route")
	}
	inner := message
	if padTo > 0 {
		if len(message)+4 > padTo {
			return nil, ErrPadOverflow
		}
		padded := make([]byte, padTo)
		binary.BigEndian.PutUint32(padded, uint32(len(message)))
		copy(padded[4:], message)
		inner = padded
	}

	// Innermost: sealed to the receiver.
	plain := make([]byte, 0, 3+len(receiver.Addr)+len(inner))
	plain = append(plain, layerDeliver)
	plain = binary.BigEndian.AppendUint16(plain, uint16(len(receiver.Addr)))
	plain = append(plain, receiver.Addr...)
	plain = append(plain, inner...)
	wire, err := seal(receiver.PubKey, plain)
	if err != nil {
		return nil, err
	}

	// Wrap outward: route[len-1] ... route[0]. Each layer names the
	// *next* hop the decrypting mix must forward to.
	next := receiver.Addr
	for i := len(route) - 1; i >= 0; i-- {
		plain = make([]byte, 0, 3+len(next)+len(wire))
		plain = append(plain, layerRelay)
		plain = binary.BigEndian.AppendUint16(plain, uint16(len(next)))
		plain = append(plain, next...)
		plain = append(plain, wire...)
		wire, err = seal(route[i].PubKey, plain)
		if err != nil {
			return nil, err
		}
		next = route[i].Addr
	}
	return wire, nil
}

func seal(pub, plain []byte) ([]byte, error) {
	enc, ct, err := hpke.Seal(pub, []byte(hpkeInfo), nil, plain)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(enc)+len(ct))
	out = append(out, enc...)
	return append(out, ct...), nil
}

func open(kp *hpke.KeyPair, wire []byte) ([]byte, error) {
	if len(wire) < hpke.NEnc+16 {
		return nil, ErrMalformedLayer
	}
	return hpke.Open(wire[:hpke.NEnc], kp, []byte(hpkeInfo), nil, wire[hpke.NEnc:])
}

func parseLayer(plain []byte) (typ byte, next transport.Addr, inner []byte, err error) {
	if len(plain) < 3 {
		return 0, "", nil, ErrMalformedLayer
	}
	typ = plain[0]
	n := int(binary.BigEndian.Uint16(plain[1:3]))
	if len(plain) < 3+n {
		return 0, "", nil, ErrMalformedLayer
	}
	return typ, transport.Addr(plain[3 : 3+n]), plain[3+n:], nil
}

// Mix is one relay node. It batches incoming messages and flushes them
// in shuffled order when the batch reaches Threshold messages or
// Timeout elapses since the batch's first message, whichever is first.
// Each batch has its own timeout: a batch that fills stops its timer,
// so a later batch never inherits it.
type Mix struct {
	Name string // ledger entity name, e.g. "Mix 1"
	Addr transport.Addr

	// Threshold is the batch size that triggers a flush. 1 disables
	// batching (the ablation baseline: a plain FIFO relay).
	Threshold int
	// Timeout bounds queueing delay, counted from the batch's first
	// message; <= 0 means wait for a full batch.
	Timeout time.Duration

	kp   *hpke.KeyPair
	lg   *ledger.Ledger
	tel  *telemetry.Telemetry
	wire *wiretrace.Plane

	queue []outbound
	// stopTimeout stops the current batch's timeout; nil when no timer
	// is armed.
	stopTimeout func() bool
	flushes     int
	dropped     int
}

type outbound struct {
	next transport.Addr
	wire []byte
	tag  byte
	// trace is the outbound wire-trace context captured when the item
	// was queued: under rotation it shares no trace ID with the inbound
	// context, and the linkage between the two lives only in this mix's
	// span store.
	trace wiretrace.Context
}

// NewMix creates a mix and registers it on the network.
func NewMix(net transport.Transport, name string, addr transport.Addr, threshold int, timeout time.Duration, lg *ledger.Ledger) (*Mix, error) {
	kp, err := hpke.GenerateKeyPair()
	if err != nil {
		return nil, fmt.Errorf("mixnet: mix key: %w", err)
	}
	m := &Mix{Name: name, Addr: addr, Threshold: threshold, Timeout: timeout, kp: kp, lg: lg}
	net.Register(addr, m.handle)
	return m, nil
}

// Info returns the mix's routing descriptor.
func (m *Mix) Info() NodeInfo { return NodeInfo{Addr: m.Addr, PubKey: m.kp.PublicKey()} }

// Stats reports flush and drop counts.
func (m *Mix) Stats() (flushes, dropped int) { return m.flushes, m.dropped }

// Instrument attaches a telemetry sink: flush sizes feed a histogram.
func (m *Mix) Instrument(tel *telemetry.Telemetry) { m.tel = tel }

// InstrumentWire attaches a wire-trace plane: each handled message
// opens a span at this mix's vantage, mirrors the mix's ledger
// observations, and rotates the trace ID before forwarding — the mix
// is a decoupling boundary, so its tracing must re-key like its
// cryptography does. Nil-safe.
func (m *Mix) InstrumentWire(p *wiretrace.Plane) { m.wire = p }

func (m *Mix) handle(net transport.Transport, msg transport.Message) {
	if len(msg.Payload) < 1 {
		m.dropped++
		return
	}
	switch msg.Payload[0] {
	case tagOnion:
		m.handleOnion(net, msg)
	case tagReply:
		m.handleReply(net, msg)
	default:
		m.dropped++
	}
}

func (m *Mix) handleOnion(net transport.Transport, msg transport.Message) {
	hop := m.wire.Hop(m.Name, "mixnet.hop", msg.Trace, string(msg.Src), "")
	defer hop.End()
	plain, err := open(m.kp, msg.Payload[1:])
	if err != nil {
		m.dropped++
		return
	}
	typ, next, inner, err := parseLayer(plain)
	if err != nil || typ != layerRelay {
		m.dropped++
		return
	}
	if m.lg != nil {
		// The mix sees the previous hop's address and the re-encrypted
		// inner bytes. Its two handles are the digests of the wire bytes
		// it shared with its neighbors. One layer-strip, one batch.
		inHandle := ledger.Hash(msg.Payload[1:])
		outHandle := ledger.Hash(inner)
		m.lg.SawBatch(m.Name, []ledger.Entry{
			{Kind: core.Identity, Value: string(msg.Src), Handles: []string{inHandle, outHandle}},
			{Kind: core.Data, Value: "onion:" + outHandle, Handles: []string{inHandle, outHandle}},
		})
		// Mirror the same observations into the trace plane: the span
		// store must know exactly what the ledger knows, so the
		// trace-plane audit can hold the two to equality.
		hop.Observe(core.Identity, string(msg.Src))
		hop.Observe(core.Data, "onion:"+outHandle)
	}
	m.enqueue(net, outbound{next: next, wire: inner, tag: tagOnion, trace: hop.Forward()})
}

// enqueue adds o to the batch queue, which forward onions and replies
// share. The message that makes the queue non-empty arms that batch's
// timeout; the message that fills it flushes at once.
func (m *Mix) enqueue(net transport.Transport, o outbound) {
	m.queue = append(m.queue, o)
	if m.Threshold > 1 && len(m.queue) < m.Threshold {
		if m.Timeout > 0 && len(m.queue) == 1 {
			m.stopTimeout = net.After(m.Timeout, func() { m.flush(net) })
		}
		return
	}
	m.flush(net)
}

// flush stops the batch's timeout (a no-op when the timeout is what
// called it), shuffles the queue (Fisher-Yates over the network's
// seeded RNG) and forwards everything.
func (m *Mix) flush(net transport.Transport) {
	if m.stopTimeout != nil {
		m.stopTimeout()
		m.stopTimeout = nil
	}
	if len(m.queue) == 0 {
		return
	}
	q := m.queue
	m.queue = nil
	m.tel.Observe(telemetry.MetricMixBatchSize, "Messages per mix batch flush.",
		telemetry.BatchBuckets, float64(len(q)), telemetry.A("mix", m.Name))
	for i := len(q) - 1; i > 0; i-- {
		j := net.Rand(i + 1)
		q[i], q[j] = q[j], q[i]
	}
	for _, o := range q {
		out := append([]byte{o.tag}, o.wire...)
		if err := transport.SendWithContext(net, m.Addr, o.next, out, o.trace); err != nil {
			m.dropped++
		}
	}
	m.flushes++
}

// Received is a message delivered to a receiver.
type Received struct {
	From transport.Addr // last-hop mix address
	Body []byte
	Time time.Duration
}

// Receiver is a terminal node that opens the innermost layer.
type Receiver struct {
	Name string
	Addr transport.Addr
	kp   *hpke.KeyPair
	lg   *ledger.Ledger
	wire *wiretrace.Plane
	// Padded indicates senders pad messages; the receiver then strips
	// the length-prefixed padding.
	Padded bool

	// mu guards inbox and dropped: on the real transport, retry
	// watchdogs poll Inbox from timer goroutines while the receiver's
	// dispatcher appends (the simulator serializes both, so it never
	// contends).
	mu      sync.Mutex
	inbox   []Received
	dropped int
}

// NewReceiver creates a receiver and registers it on the network.
func NewReceiver(net transport.Transport, name string, addr transport.Addr, padded bool, lg *ledger.Ledger) (*Receiver, error) {
	kp, err := hpke.GenerateKeyPair()
	if err != nil {
		return nil, fmt.Errorf("mixnet: receiver key: %w", err)
	}
	r := &Receiver{Name: name, Addr: addr, kp: kp, lg: lg, Padded: padded}
	net.Register(addr, r.handle)
	return r, nil
}

// Info returns the receiver's routing descriptor.
func (r *Receiver) Info() NodeInfo { return NodeInfo{Addr: r.Addr, PubKey: r.kp.PublicKey()} }

// InstrumentWire attaches a wire-trace plane: final deliveries open a
// terminal span mirroring the receiver's ledger observations. Nil-safe.
func (r *Receiver) InstrumentWire(p *wiretrace.Plane) { r.wire = p }

func (r *Receiver) handle(net transport.Transport, msg transport.Message) {
	hop := r.wire.Hop(r.Name, "mixnet.deliver", msg.Trace, string(msg.Src), "")
	defer hop.End()
	if len(msg.Payload) < 1 || msg.Payload[0] != tagOnion {
		r.drop()
		return
	}
	plain, err := open(r.kp, msg.Payload[1:])
	if err != nil {
		r.drop()
		return
	}
	typ, _, inner, err := parseLayer(plain)
	if err != nil || typ != layerDeliver {
		r.drop()
		return
	}
	body := inner
	if r.Padded {
		if len(inner) < 4 {
			r.drop()
			return
		}
		n := int(binary.BigEndian.Uint32(inner))
		if n > len(inner)-4 {
			r.drop()
			return
		}
		body = inner[4 : 4+n]
	}
	if r.lg != nil {
		inHandle := ledger.Hash(msg.Payload[1:])
		r.lg.SawBatch(r.Name, []ledger.Entry{
			{Kind: core.Identity, Value: string(msg.Src), Handles: []string{inHandle}},
			{Kind: core.Data, Value: string(body), Handles: []string{inHandle}},
		})
		hop.Observe(core.Identity, string(msg.Src))
		hop.Observe(core.Data, string(body))
	}
	r.mu.Lock()
	r.inbox = append(r.inbox, Received{From: msg.Src, Body: append([]byte(nil), body...), Time: net.Now()})
	r.mu.Unlock()
}

func (r *Receiver) drop() {
	r.mu.Lock()
	r.dropped++
	r.mu.Unlock()
}

// Inbox returns the messages received so far.
func (r *Receiver) Inbox() []Received {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Received(nil), r.inbox...)
}

// Dropped reports undecryptable or malformed deliveries.
func (r *Receiver) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Sender originates onions. It is a thin helper tying a client address
// to BuildOnion + Send.
type Sender struct {
	Addr  transport.Addr
	PadTo int
	// Wire, when set, opens a client root span per message and attaches
	// its context to the injected onion.
	Wire *wiretrace.Plane
}

// Send wraps message for the route and injects it at the first mix.
func (s *Sender) Send(net transport.Transport, route []NodeInfo, receiver NodeInfo, message []byte) error {
	onion, err := BuildOnion(route, receiver, message, s.PadTo)
	if err != nil {
		return err
	}
	root := s.Wire.Root(string(s.Addr), "mixnet.send", string(s.Addr), string(route[0].Addr))
	defer root.End()
	return transport.SendWithContext(net, s.Addr, route[0].Addr, append([]byte{tagOnion}, onion...), root.Context())
}
