// Package odoh implements Oblivious DNS over HTTPS in the shape of
// RFC 9230, the second §3.2.2 system: clients HPKE-encrypt DNS queries
// to an Oblivious Target's published key config and send them through an
// Oblivious Proxy over HTTP. The proxy learns the client's identity but
// sees only ciphertext; the target decrypts and resolves but sees only
// the proxy.
//
// Message format (ObliviousDoHMessage):
//
//	[type 1][keyID len 2][keyID][msg len 2][msg]
//
// where type 1 is a query (msg = enc || ciphertext) and type 2 a
// response (msg = AES-GCM sealed under the key exported from the query's
// HPKE context with label "odoh response").
//
// Proxy and Target are plain types; ProxyHandler/TargetHandler adapt
// them to net/http so the examples run the protocol over real loopback
// TCP. The paper's table entity names: the proxy is the client's
// "Resolver", the target the "Oblivious Resolver".
package odoh

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"decoupling/internal/core"
	"decoupling/internal/dcrypto/hpke"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
)

// Message types.
const (
	MessageTypeQuery    byte = 1
	MessageTypeResponse byte = 2
)

// Default entity names matching the paper's §3.2.2 table.
const (
	ProxyName  = "Resolver"
	TargetName = "Oblivious Resolver"
)

const (
	queryInfo     = "decoupling odoh query"
	responseLabel = "odoh response"
	respKeyLen    = 16
)

// Errors returned by the protocol.
var (
	ErrMalformed  = errors.New("odoh: malformed oblivious message")
	ErrUnknownKey = errors.New("odoh: unknown key id")
	ErrType       = errors.New("odoh: unexpected message type")
)

// Message is the ObliviousDoHMessage envelope.
type Message struct {
	Type  byte
	KeyID []byte
	Body  []byte
}

// Marshal encodes the envelope.
func (m *Message) Marshal() []byte {
	out := make([]byte, 0, 1+2+len(m.KeyID)+2+len(m.Body))
	out = append(out, m.Type)
	out = binary.BigEndian.AppendUint16(out, uint16(len(m.KeyID)))
	out = append(out, m.KeyID...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(m.Body)))
	return append(out, m.Body...)
}

// UnmarshalMessage decodes an envelope.
func UnmarshalMessage(data []byte) (*Message, error) {
	if len(data) < 5 {
		return nil, ErrMalformed
	}
	m := &Message{Type: data[0]}
	rest := data[1:]
	n := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < n {
		return nil, ErrMalformed
	}
	m.KeyID = append([]byte(nil), rest[:n]...)
	rest = rest[n:]
	if len(rest) < 2 {
		return nil, ErrMalformed
	}
	n = int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) != n {
		return nil, ErrMalformed
	}
	m.Body = append([]byte(nil), rest...)
	return m, nil
}

// Target is the Oblivious Target: it holds the one HPKE key pair whose
// config it publishes and resolves decrypted queries through an
// upstream authority.
type Target struct {
	Name     string
	lg       *ledger.Ledger
	tel      *telemetry.Telemetry
	wire     *wiretrace.Plane
	Upstream dns.Authority

	kp    *hpke.KeyPair
	keyID []byte // first 8 bytes of SHA-256 of the public key

	mu      sync.Mutex
	handled int
}

// NewTarget creates a target resolving through upstream, with a fresh
// key pair.
func NewTarget(name string, upstream dns.Authority, lg *ledger.Ledger) (*Target, error) {
	kp, err := hpke.GenerateKeyPair()
	if err != nil {
		return nil, fmt.Errorf("odoh: target key: %w", err)
	}
	sum := sha256.Sum256(kp.PublicKey())
	return &Target{Name: name, lg: lg, Upstream: upstream, kp: kp, keyID: sum[:8]}, nil
}

// Instrument attaches a telemetry sink: each handled query feeds the
// handled counter.
func (t *Target) Instrument(tel *telemetry.Telemetry) { t.tel = tel }

// InstrumentWire attaches a wire-trace plane: each handled query opens
// a span continuing the context handed off with the query bytes (or
// carried in the TraceHeader over HTTP), mirrors the target's ledger
// observations, and rotates the trace before the recursion upstream —
// the target is a decoupling boundary. Nil-safe.
func (t *Target) InstrumentWire(p *wiretrace.Plane) { t.wire = p }

// KeyConfig returns (keyID, public key) of the published config.
func (t *Target) KeyConfig() (keyID, pub []byte) {
	return bytes.Clone(t.keyID), t.kp.PublicKey()
}

// Handled reports the number of successfully answered queries.
func (t *Target) Handled() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handled
}

// HandleQuery processes one oblivious query arriving from the named
// party (normally the proxy) and returns the encrypted response
// envelope.
func (t *Target) HandleQuery(from string, raw []byte) ([]byte, error) {
	hop := t.wire.Hop(t.Name, "odoh.target.handle", t.wire.TakeHandoff(raw), from, "")
	defer hop.End()
	m, err := UnmarshalMessage(raw)
	if err != nil {
		return nil, err
	}
	if m.Type != MessageTypeQuery {
		return nil, ErrType
	}
	if !bytes.Equal(m.KeyID, t.keyID) {
		return nil, ErrUnknownKey
	}
	if len(m.Body) < hpke.NEnc+16 {
		return nil, ErrMalformed
	}
	ctx, err := hpke.SetupRecipient(m.Body[:hpke.NEnc], t.kp, []byte(queryInfo))
	if err != nil {
		return nil, err
	}
	wire, err := ctx.Open(nil, m.Body[hpke.NEnc:])
	if err != nil {
		return nil, err
	}
	query, err := dnswire.Decode(wire)
	if err != nil || len(query.Questions) != 1 {
		return nil, ErrMalformed
	}
	name := dnswire.CanonicalName(query.Questions[0].Name)
	t.tel.Count(telemetry.MetricOdohHandled, "Oblivious queries answered by the target.", 1,
		telemetry.A("target", t.Name))

	if t.lg != nil {
		h := ledger.ConnHandle(from, t.Name)
		t.lg.SawBatch(t.Name, []ledger.Entry{
			{Kind: core.Identity, Value: from, Handles: []string{h}},
			{Kind: core.Data, Value: name, Handles: []string{h, "recursion:" + name}},
		})
		hop.Observe(core.Identity, from)
		hop.Observe(core.Data, name)
	}

	var resp *dnswire.Message
	if t.Upstream != nil && t.Upstream.Serves(name) {
		t.wire.Handoff([]byte(name), hop.Forward())
		resp = t.Upstream.Handle(t.Name, query)
	} else {
		resp = query.Reply()
		resp.RCode = dnswire.RCodeServFail
	}
	respWire, err := resp.Encode()
	if err != nil {
		return nil, err
	}
	respKey := ctx.Export([]byte(responseLabel), respKeyLen)
	sealed, err := hpke.SealSymmetric(respKey, nil, respWire)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.handled++
	t.mu.Unlock()
	return (&Message{Type: MessageTypeResponse, KeyID: m.KeyID, Body: sealed}).Marshal(), nil
}

// Proxy is the Oblivious Proxy: the client's untrusting courier. It
// plays the "Resolver" role of the paper's table — the party that knows
// the client but not the query.
type Proxy struct {
	Name   string
	Target *Target
	lg     *ledger.Ledger
	tel    *telemetry.Telemetry
	wire   *wiretrace.Plane

	mu        sync.Mutex
	forwarded int
}

// NewProxy creates a proxy forwarding to target.
func NewProxy(name string, target *Target, lg *ledger.Ledger) *Proxy {
	return &Proxy{Name: name, Target: target, lg: lg}
}

// Instrument attaches a telemetry sink: each relayed query feeds the
// forwarded counter.
func (p *Proxy) Instrument(tel *telemetry.Telemetry) { p.tel = tel }

// InstrumentWire attaches a wire-trace plane; the proxy is the
// prototypical decoupling boundary, so its span rotates the trace ID
// before the target leg. Nil-safe.
func (p *Proxy) InstrumentWire(w *wiretrace.Plane) { p.wire = w }

// Forwarded reports the number of relayed queries.
func (p *Proxy) Forwarded() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.forwarded
}

// Forward relays an opaque oblivious query from clientAddr to the
// target and returns the opaque response. The proxy's observations:
// the client's identity and two ciphertext blobs.
func (p *Proxy) Forward(clientAddr string, raw []byte) ([]byte, error) {
	return p.relay(clientAddr, raw, nil, "")
}

// relay is the proxy's one relay body. The target leg is a direct call
// to p.Target, with the trace context handed off alongside the bytes,
// when targetURL is empty, and an HTTP POST to the TargetHandler at
// targetURL, with the context in TraceHeader, otherwise.
func (p *Proxy) relay(clientAddr string, raw []byte, client *http.Client, targetURL string) ([]byte, error) {
	hop := p.wire.Hop(p.Name, "odoh.proxy.forward", p.wire.TakeHandoff(raw), clientAddr, p.Target.Name)
	defer hop.End()
	p.tel.Count(telemetry.MetricOdohForwarded, "Oblivious queries relayed by the proxy.", 1,
		telemetry.A("proxy", p.Name))
	if p.lg != nil {
		// The raw observed peer endpoint is itself a join key (the party
		// on the other side of the socket holds the same string), in
		// addition to the per-leg session handles. Both observations come
		// from one relayed request, so they admit as one batch: a single
		// shard-lock acquisition even with thousands of concurrent
		// handler goroutines.
		clientLeg := ledger.ConnHandle(clientAddr, p.Name)
		targetLeg := ledger.ConnHandle(p.Name, p.Target.Name)
		p.lg.SawBatch(p.Name, []ledger.Entry{
			{Kind: core.Identity, Value: clientAddr, Handles: []string{clientAddr, clientLeg}},
			{Kind: core.Data, Value: "ciphertext:" + ledger.Hash(raw), Handles: []string{clientLeg, targetLeg}},
		})
		hop.Observe(core.Identity, clientAddr)
		hop.Observe(core.Data, "ciphertext:"+ledger.Hash(raw))
	}
	var resp []byte
	var err error
	if targetURL == "" {
		p.wire.Handoff(raw, hop.Forward())
		resp, err = p.Target.HandleQuery(p.Name, raw)
	} else {
		resp, err = post(client, targetURL+"/dns-query", raw, hop.Forward())
	}
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.forwarded++
	p.mu.Unlock()
	return resp, nil
}

// Client encrypts DNS queries for a target and sends them via a
// forwarding function (direct proxy call or HTTP).
type Client struct {
	ID        string
	targetKey []byte
	keyID     []byte
	wire      *wiretrace.Plane
}

// InstrumentWire attaches a wire-trace plane: each Query opens the
// root span of the trace and hands its context off with the query
// bytes. Nil-safe.
func (c *Client) InstrumentWire(p *wiretrace.Plane) { c.wire = p }

// NewClient creates a client for the given target key config.
func NewClient(id string, keyID, targetPub []byte) *Client {
	return &Client{ID: id, targetKey: targetPub, keyID: keyID}
}

// ForwardFunc relays an oblivious query and returns the raw response.
type ForwardFunc func(clientAddr string, raw []byte) ([]byte, error)

// Query obliviously resolves (name, qtype) via forward.
func (c *Client) Query(name string, qtype dnswire.Type, forward ForwardFunc) (*dnswire.Message, error) {
	q := dnswire.NewQuery(1, name, qtype)
	wire, err := q.Encode()
	if err != nil {
		return nil, err
	}
	enc, ctx, err := hpke.SetupSender(c.targetKey, []byte(queryInfo))
	if err != nil {
		return nil, err
	}
	body := append(append([]byte(nil), enc...), ctx.Seal(nil, wire)...)
	msg := &Message{Type: MessageTypeQuery, KeyID: c.keyID, Body: body}

	raw := msg.Marshal()
	root := c.wire.Root(wiretrace.ClientVantage, "odoh.client.query", c.ID, "")
	defer root.End()
	c.wire.Handoff(raw, root.Context())
	rawResp, err := forward(c.ID, raw)
	if err != nil {
		return nil, err
	}
	respMsg, err := UnmarshalMessage(rawResp)
	if err != nil {
		return nil, err
	}
	if respMsg.Type != MessageTypeResponse {
		return nil, ErrType
	}
	respKey := ctx.Export([]byte(responseLabel), respKeyLen)
	respWire, err := hpke.OpenSymmetric(respKey, nil, respMsg.Body)
	if err != nil {
		return nil, err
	}
	return dnswire.Decode(respWire)
}

// --- HTTP adapters -------------------------------------------------

const contentType = "application/oblivious-dns-message"

// TraceHeader carries a hex-encoded wire-trace context across an HTTP
// hop, the header-borne equivalent of the frame codec's v2 trace
// extension: out-of-band of the oblivious message body, so traced and
// untraced requests carry identical payload bytes.
const TraceHeader = "X-Decoupling-Trace"

// TargetHandler serves the target at POST /dns-query.
func TargetHandler(t *Target) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		depositHeaderContext(t.wire, r, body)
		resp, err := t.HandleQuery(r.RemoteAddr, body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(resp)
	})
}

// ProxyHandler serves the proxy at POST /proxy. When httpTarget is
// non-empty the proxy relays over real HTTP to that base URL; otherwise
// it uses its direct target reference.
func ProxyHandler(p *Proxy, client *http.Client, httpTarget string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		depositHeaderContext(p.wire, r, body)
		resp, err := p.relay(r.RemoteAddr, body, client, httpTarget)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(resp)
	})
}

// HTTPForward returns a ForwardFunc posting to a ProxyHandler at
// baseURL. It claims the wire-trace context Client.Query deposited for
// the query bytes and sends it in TraceHeader, where ProxyHandler
// re-deposits it; a nil wire sends none.
func HTTPForward(client *http.Client, baseURL string, wire *wiretrace.Plane) ForwardFunc {
	url := baseURL + "/proxy"
	return func(_ string, raw []byte) ([]byte, error) {
		return post(client, url, raw, wire.TakeHandoff(raw))
	}
}

// post sends one oblivious message to url, with a non-zero ctx in
// TraceHeader, and returns the response body.
func post(client *http.Client, url string, raw []byte, ctx wiretrace.Context) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if !ctx.IsZero() {
		req.Header.Set(TraceHeader, ctx.MarshalHeader())
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("odoh: %s returned %s: %s", url, resp.Status, out)
	}
	return out, nil
}

// depositHeaderContext re-deposits a TraceHeader context into the
// plane's handoff queue keyed by the request body, so the handler's
// TakeHandoff finds it exactly as it would on a direct call.
func depositHeaderContext(wire *wiretrace.Plane, r *http.Request, body []byte) {
	h := r.Header.Get(TraceHeader)
	if h == "" || !wire.Enabled() {
		return
	}
	if ctx, err := wiretrace.ParseHeader(h); err == nil {
		wire.Handoff(body, ctx)
	}
}
