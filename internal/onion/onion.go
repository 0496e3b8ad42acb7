// Package onion implements real-time onion routing in the style of
// Tor (the paper's §3.1.2): clients build circuits through a set of
// relays, and request/response traffic flows as fixed-size cells with
// one encryption layer per hop in each direction.
//
// Where the mixnet package models Chaum's store-and-shuffle design,
// this package models the low-latency variant the paper discusses under
// "degrees of decoupling" (§4.2: more hops, more cost) and "deployment
// considerations" (§4.3: fixed 512-byte cells and optional chaff against
// traffic analysis). Circuit setup uses HPKE to place a symmetric key at
// each relay; data cells use per-hop AES-CTR layers so cell size is
// invariant across hops, as in Tor.
package onion

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"decoupling/internal/dcrypto/hpke"
	"decoupling/internal/ledger"
	"decoupling/internal/resilience"
	"decoupling/internal/telemetry"
	"decoupling/internal/transport"
)

// Cell geometry. Every cell on the wire is exactly CellSize bytes:
// a 4-byte circuit id, an 8-byte sequence number, and the body.
const (
	CellSize     = 512
	cellHeader   = 12
	CellBodySize = CellSize - cellHeader
	// MaxData is the application payload a single cell can carry (the
	// body minus the 1-byte command and 2-byte length framing).
	MaxData = CellBodySize - 3
)

// Cell commands (encrypted, visible only after all layers are removed).
const (
	cmdData  byte = 0
	cmdChaff byte = 1
)

// Directions for keystream derivation.
const (
	dirForward  byte = 0
	dirBackward byte = 1
)

var (
	// ErrTooLong is returned when a payload exceeds MaxData.
	ErrTooLong = errors.New("onion: payload exceeds cell capacity")
	// ErrNoCircuit is returned for cells on unknown circuit ids.
	ErrNoCircuit = errors.New("onion: unknown circuit")
)

const setupInfo = "decoupling onion setup"

// RelayInfo is a relay's directory entry.
type RelayInfo struct {
	Name   string
	Addr   transport.Addr
	PubKey []byte
}

// keystream XORs one onion layer in place over body.
func applyLayer(key []byte, dir byte, seq uint64, body []byte) {
	block, err := aes.NewCipher(key)
	if err != nil {
		// Keys are always 16 bytes by construction.
		panic(fmt.Sprintf("onion: bad layer key: %v", err))
	}
	var iv [16]byte
	iv[0] = dir
	binary.BigEndian.PutUint64(iv[1:9], seq)
	cipher.NewCTR(block, iv[:]).XORKeyStream(body, body)
}

type circuitEntry struct {
	key      []byte
	cidOut   uint32
	next     transport.Addr
	prev     transport.Addr
	exit     bool
	backSeq  uint64
	cidIn    uint32
	originAd transport.Addr // unused on non-exit relays
}

// Relay is an onion router. The same type serves as middle and exit
// node depending on the circuit's setup layer.
type Relay struct {
	Name string
	Addr transport.Addr
	kp   *hpke.KeyPair
	lg   *ledger.Ledger
	tel  *telemetry.Telemetry

	circuits map[uint32]*circuitEntry
	// byOut maps outbound circuit ids back to entries for the return
	// path.
	byOut   map[uint32]*circuitEntry
	dropped int
}

// NewRelay creates a relay and registers it on the network.
func NewRelay(net transport.Transport, name string, addr transport.Addr, lg *ledger.Ledger) (*Relay, error) {
	kp, err := hpke.GenerateKeyPair()
	if err != nil {
		return nil, fmt.Errorf("onion: relay key: %w", err)
	}
	r := &Relay{
		Name: name, Addr: addr, kp: kp, lg: lg,
		circuits: map[uint32]*circuitEntry{},
		byOut:    map[uint32]*circuitEntry{},
	}
	net.Register(addr, r.handle)
	return r, nil
}

// Info returns the relay's directory entry.
func (r *Relay) Info() RelayInfo {
	return RelayInfo{Name: r.Name, Addr: r.Addr, PubKey: r.kp.PublicKey()}
}

// Instrument attaches a telemetry sink: each relayed cell feeds the
// per-relay cell counter.
func (r *Relay) Instrument(tel *telemetry.Telemetry) { r.tel = tel }

// Dropped reports cells discarded for malformed framing or unknown
// circuits.
func (r *Relay) Dropped() int { return r.dropped }

// Message kinds on the wire, prefixed to every transport payload.
const (
	wireSetup byte = 0
	wireCell  byte = 1
	wireExitQ byte = 2 // exit -> origin plaintext request
	wireExitR byte = 3 // origin -> exit plaintext response
)

func (r *Relay) handle(net transport.Transport, msg transport.Message) {
	if len(msg.Payload) == 0 {
		r.dropped++
		return
	}
	switch msg.Payload[0] {
	case wireSetup:
		r.handleSetup(net, msg)
	case wireCell:
		r.handleCell(net, msg)
	case wireExitR:
		r.handleOriginResponse(net, msg)
	default:
		r.dropped++
	}
}

// Setup layer plaintext:
//
//	[key 16][cidIn 4][cidOut 4][exit 1][addrlen 2][next addr][inner setup bytes]
func (r *Relay) handleSetup(net transport.Transport, msg transport.Message) {
	wire := msg.Payload[1:]
	if len(wire) < hpke.NEnc+16 {
		r.dropped++
		return
	}
	plain, err := hpke.Open(wire[:hpke.NEnc], r.kp, []byte(setupInfo), nil, wire[hpke.NEnc:])
	if err != nil {
		r.dropped++
		return
	}
	if len(plain) < 16+4+4+1+2 {
		r.dropped++
		return
	}
	key := plain[:16]
	cidIn := binary.BigEndian.Uint32(plain[16:20])
	cidOut := binary.BigEndian.Uint32(plain[20:24])
	isExit := plain[24] == 1
	n := int(binary.BigEndian.Uint16(plain[25:27]))
	if len(plain) < 27+n {
		r.dropped++
		return
	}
	next := transport.Addr(plain[27 : 27+n])
	inner := plain[27+n:]

	entry := &circuitEntry{
		key: append([]byte(nil), key...), cidIn: cidIn, cidOut: cidOut,
		next: next, prev: msg.Src, exit: isExit,
	}
	r.circuits[cidIn] = entry
	if !isExit {
		r.byOut[cidOut] = entry
	}
	if r.lg != nil {
		// Circuit ids are the linkage handles: adjacent hops share one.
		r.lg.SawIdentity(r.Name, string(msg.Src), cidHandle(cidIn), cidHandle(cidOut))
	}
	if !isExit && len(inner) > 0 {
		out := append([]byte{wireSetup}, inner...)
		if err := net.Send(r.Addr, next, out); err != nil {
			r.dropped++
		}
	}
}

func cidHandle(cid uint32) string {
	return fmt.Sprintf("circ:%08x", cid)
}

func (r *Relay) handleCell(net transport.Transport, msg transport.Message) {
	r.tel.Count(telemetry.MetricOnionCells, "Onion cells processed per relay.", 1,
		telemetry.A("relay", r.Name))
	if len(msg.Payload) != 1+CellSize {
		r.dropped++
		return
	}
	cell := append([]byte(nil), msg.Payload[1:]...)
	cid := binary.BigEndian.Uint32(cell[0:4])
	seq := binary.BigEndian.Uint64(cell[4:12])
	body := cell[cellHeader:]

	if entry, ok := r.circuits[cid]; ok && msg.Src == entry.prev {
		// Forward direction: strip one layer.
		applyLayer(entry.key, dirForward, seq, body)
		if entry.exit {
			r.deliverExit(net, entry, body)
			return
		}
		binary.BigEndian.PutUint32(cell[0:4], entry.cidOut)
		if err := net.Send(r.Addr, entry.next, append([]byte{wireCell}, cell...)); err != nil {
			r.dropped++
		}
		return
	}
	if entry, ok := r.byOut[cid]; ok && msg.Src == entry.next {
		// Backward direction: add our layer and pass toward the client.
		applyLayer(entry.key, dirBackward, seq, body)
		binary.BigEndian.PutUint32(cell[0:4], entry.cidIn)
		if err := net.Send(r.Addr, entry.prev, append([]byte{wireCell}, cell...)); err != nil {
			r.dropped++
		}
		return
	}
	r.dropped++
}

// deliverExit handles a fully unwrapped forward cell at the exit: parse
// the framing and forward the plaintext request to the origin.
func (r *Relay) deliverExit(net transport.Transport, entry *circuitEntry, body []byte) {
	cmd := body[0]
	if cmd == cmdChaff {
		return // chaff is absorbed here
	}
	n := int(binary.BigEndian.Uint16(body[1:3]))
	if n > MaxData {
		r.dropped++
		return
	}
	req := body[3 : 3+n]
	// Request framing: [addrlen 2][origin addr][payload]
	if len(req) < 2 {
		r.dropped++
		return
	}
	an := int(binary.BigEndian.Uint16(req[0:2]))
	if len(req) < 2+an {
		r.dropped++
		return
	}
	origin := transport.Addr(req[2 : 2+an])
	payload := req[2+an:]
	entry.originAd = origin
	if r.lg != nil {
		// The exit sees the request plaintext and the origin name.
		r.lg.SawData(r.Name, string(payload), cidHandle(entry.cidIn))
		r.lg.SawData(r.Name, "origin:"+string(origin), cidHandle(entry.cidIn))
	}
	// Tag with our circuit id so the response can find its way back.
	out := make([]byte, 0, 1+4+len(payload))
	out = append(out, wireExitQ)
	out = binary.BigEndian.AppendUint32(out, entry.cidIn)
	out = append(out, payload...)
	if err := net.Send(r.Addr, origin, out); err != nil {
		r.dropped++
	}
}

// handleOriginResponse wraps an origin's plaintext reply into backward
// cells with this exit's layer applied.
func (r *Relay) handleOriginResponse(net transport.Transport, msg transport.Message) {
	if len(msg.Payload) < 5 {
		r.dropped++
		return
	}
	cid := binary.BigEndian.Uint32(msg.Payload[1:5])
	entry, ok := r.circuits[cid]
	if !ok || !entry.exit {
		r.dropped++
		return
	}
	data := msg.Payload[5:]
	for off := 0; off == 0 || off < len(data); off += MaxData {
		chunk := data[off:min(off+MaxData, len(data))]
		cell := make([]byte, CellSize)
		binary.BigEndian.PutUint32(cell[0:4], entry.cidIn)
		entry.backSeq++
		binary.BigEndian.PutUint64(cell[4:12], entry.backSeq)
		body := cell[cellHeader:]
		body[0] = cmdData
		binary.BigEndian.PutUint16(body[1:3], uint16(len(chunk)))
		copy(body[3:], chunk)
		applyLayer(entry.key, dirBackward, entry.backSeq, body)
		if err := net.Send(r.Addr, entry.prev, append([]byte{wireCell}, cell...)); err != nil {
			r.dropped++
		}
	}
}

// Origin is a terminal plaintext server on the simulated network: it
// answers every request with a fixed-size body, observing the exit's
// address and the request content.
type Origin struct {
	Name         string
	Addr         transport.Addr
	ResponseSize int
	lg           *ledger.Ledger
	requests     []string
	dropped      int
}

// NewOrigin creates an origin node.
func NewOrigin(net transport.Transport, name string, addr transport.Addr, responseSize int, lg *ledger.Ledger) *Origin {
	o := &Origin{Name: name, Addr: addr, ResponseSize: responseSize, lg: lg}
	net.Register(addr, o.handle)
	return o
}

func (o *Origin) handle(net transport.Transport, msg transport.Message) {
	if len(msg.Payload) < 5 || msg.Payload[0] != wireExitQ {
		return
	}
	cid := msg.Payload[1:5]
	req := string(msg.Payload[5:])
	if o.lg != nil {
		o.lg.SawIdentity(o.Name, string(msg.Src), "origin-conn:"+string(cid))
		o.lg.SawData(o.Name, req, "origin-conn:"+string(cid))
	}
	o.requests = append(o.requests, req)
	resp := make([]byte, 0, 1+4+o.ResponseSize)
	resp = append(resp, wireExitR)
	resp = append(resp, cid...)
	body := make([]byte, o.ResponseSize)
	copy(body, "response to: "+req)
	resp = append(resp, body...)
	if err := net.Send(o.Addr, msg.Src, resp); err != nil {
		// The exit died between request and response; surfacing the
		// drop keeps retry logic and the simnet loss counters agreed.
		o.dropped++
	}
}

// Requests returns the plaintext requests the origin has served.
func (o *Origin) Requests() []string { return append([]string(nil), o.requests...) }

// Dropped reports responses the origin could not send back (the exit
// was down or unregistered).
func (o *Origin) Dropped() int { return o.dropped }

// Response is a reassembled backward payload delivered to the client.
type Response struct {
	Body []byte
	Time time.Duration
}

// Circuit is a client's established path through the relays.
type Circuit struct {
	client *Client
	keys   [][]byte
	cids   []uint32
	entry  transport.Addr
	seq    uint64
}

// Client is an onion-routing client node; it owns circuits and collects
// responses.
type Client struct {
	Addr transport.Addr
	net  transport.Transport

	// mu guards the circuit table and response log: on the real
	// transport, retry attempts build circuits from timer goroutines
	// while the client's dispatcher delivers backward cells (the
	// simulator serializes both, so it never contends).
	mu        sync.Mutex
	circuits  map[uint32]*Circuit
	responses []Response
	dropped   int
}

// NewClient creates a client node on the network.
func NewClient(net transport.Transport, addr transport.Addr) *Client {
	c := &Client{Addr: addr, net: net, circuits: map[uint32]*Circuit{}}
	net.Register(addr, c.handle)
	return c
}

// BuildCircuit lays a circuit through the given relays (first hop
// first; the last relay acts as exit). Setup is a single onion-wrapped
// pass, standing in for Tor's telescoping handshake: key placement and
// per-hop knowledge are identical, only round trips are elided.
func (c *Client) BuildCircuit(relays []RelayInfo) (*Circuit, error) {
	if len(relays) == 0 {
		return nil, errors.New("onion: circuit needs at least one relay")
	}
	circ := &Circuit{client: c, entry: relays[0].Addr}
	for range relays {
		key := make([]byte, 16)
		if _, err := rand.Read(key); err != nil {
			return nil, fmt.Errorf("onion: layer key: %w", err)
		}
		var cidBuf [4]byte
		if _, err := rand.Read(cidBuf[:]); err != nil {
			return nil, fmt.Errorf("onion: circuit id: %w", err)
		}
		circ.keys = append(circ.keys, key)
		circ.cids = append(circ.cids, binary.BigEndian.Uint32(cidBuf[:]))
	}

	// Build the setup onion inside-out.
	var inner []byte
	for i := len(relays) - 1; i >= 0; i-- {
		var cidOut uint32
		var next transport.Addr
		isExit := byte(0)
		if i == len(relays)-1 {
			isExit = 1
		} else {
			cidOut = circ.cids[i+1]
			next = relays[i+1].Addr
		}
		plain := make([]byte, 0, 27+len(next)+len(inner))
		plain = append(plain, circ.keys[i]...)
		plain = binary.BigEndian.AppendUint32(plain, circ.cids[i])
		plain = binary.BigEndian.AppendUint32(plain, cidOut)
		plain = append(plain, isExit)
		plain = binary.BigEndian.AppendUint16(plain, uint16(len(next)))
		plain = append(plain, next...)
		plain = append(plain, inner...)
		enc, ct, err := hpke.Seal(relays[i].PubKey, []byte(setupInfo), nil, plain)
		if err != nil {
			return nil, err
		}
		inner = append(enc, ct...)
	}
	c.mu.Lock()
	c.circuits[circ.cids[0]] = circ
	c.mu.Unlock()
	if err := c.net.Send(c.Addr, circ.entry, append([]byte{wireSetup}, inner...)); err != nil {
		return nil, err
	}
	return circ, nil
}

// BuildCircuitResilient builds a circuit of `hops` relays drawn from
// pool, failing over to a different entry relay when a send into the
// network fails fast (entry inside a crash window). The rotation start
// is drawn from the network RNG, so runs are deterministic per seed.
// Degradation policy: fail-closed — if every candidate entry is down
// the build errors (wrapping resilience.ErrExhausted); the client never
// contacts the origin directly. Mid-route crashes are invisible at
// build time (the setup onion is fire-and-forget); callers needing
// end-to-end confirmation arm a resilience.Watchdog on the first
// request.
func (c *Client) BuildCircuitResilient(pool []RelayInfo, hops int, tel *telemetry.Telemetry) (*Circuit, error) {
	if hops <= 0 || hops > len(pool) {
		return nil, fmt.Errorf("onion: cannot pick %d distinct relays from a pool of %d", hops, len(pool))
	}
	p := resilience.Default("onion")
	p.MaxAttempts = len(pool)
	start := c.net.Rand(len(pool))
	var circ *Circuit
	_, err := resilience.DoFailover(p, tel, uint64(start), nil, len(pool),
		func(attempt, endpoint int) error {
			// Entry rotates with the endpoint; the rest of the route is
			// filled from pool order, skipping the entry.
			entry := pool[(start+endpoint)%len(pool)]
			route := make([]RelayInfo, 0, hops)
			route = append(route, entry)
			for _, r := range pool {
				if len(route) == hops {
					break
				}
				if r.Addr != entry.Addr {
					route = append(route, r)
				}
			}
			built, berr := c.BuildCircuit(route)
			if berr != nil {
				return berr
			}
			circ = built
			return nil
		})
	if err != nil {
		return nil, err
	}
	return circ, nil
}

// Request sends payload to origin through the circuit as a single
// forward cell (the request must fit one cell; responses may span
// several).
func (circ *Circuit) Request(origin transport.Addr, payload []byte) error {
	framed := make([]byte, 0, 2+len(origin)+len(payload))
	framed = binary.BigEndian.AppendUint16(framed, uint16(len(origin)))
	framed = append(framed, origin...)
	framed = append(framed, payload...)
	return circ.sendCell(cmdData, framed)
}

// SendChaff injects one dummy cell, absorbed at the exit. On the wire
// it is indistinguishable from a data cell.
func (circ *Circuit) SendChaff() error {
	return circ.sendCell(cmdChaff, nil)
}

func (circ *Circuit) sendCell(cmd byte, data []byte) error {
	if len(data) > MaxData {
		return ErrTooLong
	}
	cell := make([]byte, CellSize)
	circ.seq++
	binary.BigEndian.PutUint32(cell[0:4], circ.cids[0])
	binary.BigEndian.PutUint64(cell[4:12], circ.seq)
	body := cell[cellHeader:]
	body[0] = cmd
	binary.BigEndian.PutUint16(body[1:3], uint16(len(data)))
	copy(body[3:], data)
	// Apply layers outermost-last so the entry relay strips first:
	// innermost (exit) layer applied first.
	for i := len(circ.keys) - 1; i >= 0; i-- {
		applyLayer(circ.keys[i], dirForward, circ.seq, body)
	}
	return circ.client.net.Send(circ.client.Addr, circ.entry, append([]byte{wireCell}, cell...))
}

// handle processes backward cells arriving at the client.
func (c *Client) handle(net transport.Transport, msg transport.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(msg.Payload) != 1+CellSize || msg.Payload[0] != wireCell {
		c.dropped++
		return
	}
	cell := msg.Payload[1:]
	cid := binary.BigEndian.Uint32(cell[0:4])
	seq := binary.BigEndian.Uint64(cell[4:12])
	circ, ok := c.circuits[cid]
	if !ok {
		c.dropped++
		return
	}
	body := append([]byte(nil), cell[cellHeader:]...)
	// Remove every hop's backward layer, entry-first.
	for _, key := range circ.keys {
		applyLayer(key, dirBackward, seq, body)
	}
	if body[0] != cmdData {
		c.dropped++
		return
	}
	n := int(binary.BigEndian.Uint16(body[1:3]))
	if n > MaxData {
		c.dropped++
		return
	}
	c.responses = append(c.responses, Response{
		Body: append([]byte(nil), body[3:3+n]...),
		Time: net.Now(),
	})
}

// Responses returns payloads received so far.
func (c *Client) Responses() []Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Response(nil), c.responses...)
}

// Dropped reports discarded inbound cells.
func (c *Client) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}
