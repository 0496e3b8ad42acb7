// Package wiretrace is wall-clock distributed tracing with the
// decoupling principle applied to the tracing system itself.
//
// A conventional tracer assigns each request one global trace ID and
// propagates it end-to-end. That ID is a join key: any two vantage
// points that log it can link their observations, which makes the
// observability plane exactly the "single point of trust" the paper
// warns about — a telemetry backend (or any coalition of span stores)
// could re-couple identities to usage that the protocol itself keeps
// decoupled. This package therefore rotates the trace ID at every
// decoupling boundary (ModeRotate): a proxy that re-keys queries also
// re-keys the trace, keeping the old→new linkage only in its local
// span store, exactly as it alone holds the mapping between the
// ciphertexts on its two legs. The deliberately vulnerable ModeNaive
// (one trace ID per request, end-to-end) exists as a planted
// counterexample the trace-plane audit must flag as COUPLED.
//
// Spans carry the observed values their vantage admits to the
// knowledge ledger, so each span store can be replayed as a ledger and
// compared against the protocol's: the trace plane must know exactly
// what the protocol plane knows, no more (see audit.go).
package wiretrace

import (
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/telemetry"
)

// TraceID names one traced request *segment*. Under ModeRotate a
// request accumulates a chain of trace IDs, one per decoupling
// boundary crossed; under ModeNaive a single ID spans the whole path.
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits ("" when unset).
func (t TraceID) String() string {
	if t.IsZero() {
		return ""
	}
	return hex.EncodeToString(t[:])
}

// SpanID names one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits ("" when unset).
func (s SpanID) String() string {
	if s.IsZero() {
		return ""
	}
	return hex.EncodeToString(s[:])
}

// Context is the propagated trace context: what crosses a hop, either
// in the frame codec's trace extension (real transport), the simulated
// message (simnet), or an out-of-band handoff keyed by the message
// bytes (direct-call stacks). 24 bytes on the wire.
type Context struct {
	Trace TraceID
	Span  SpanID // the upstream (parent) span
}

// IsZero reports whether the context carries no trace.
func (c Context) IsZero() bool { return c.Trace.IsZero() && c.Span.IsZero() }

// EncodedLen is the wire size of an encoded Context.
const EncodedLen = 24

// Encode appends the 24-byte wire form.
func (c Context) Encode(dst []byte) []byte {
	dst = append(dst, c.Trace[:]...)
	return append(dst, c.Span[:]...)
}

// MarshalHeader renders the context for text transports (an HTTP
// header): 48 lowercase hex digits.
func (c Context) MarshalHeader() string {
	return hex.EncodeToString(c.Encode(nil))
}

// ParseHeader parses a MarshalHeader rendering.
func ParseHeader(s string) (Context, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return Context{}, fmt.Errorf("wiretrace: bad context header: %w", err)
	}
	if len(b) != EncodedLen {
		return Context{}, fmt.Errorf("wiretrace: context header needs %d bytes, have %d", EncodedLen, len(b))
	}
	return DecodeContext(b)
}

// DecodeContext parses a wire-encoded context prefix of b.
func DecodeContext(b []byte) (Context, error) {
	var c Context
	if len(b) < EncodedLen {
		return c, fmt.Errorf("wiretrace: context needs %d bytes, have %d", EncodedLen, len(b))
	}
	copy(c.Trace[:], b[:16])
	copy(c.Span[:], b[16:24])
	return c, nil
}

// ClientVantage is the shared span-store vantage for traced clients:
// client root spans carry no observed values (a user's knowledge of
// their own query is not an adversarial vantage), and a shared store
// keeps a million-client run from minting a million stores.
const ClientVantage = "client"

// Mode selects the propagation policy.
type Mode uint8

const (
	// ModeOff disables the plane entirely.
	ModeOff Mode = iota
	// ModeRotate re-keys the trace ID at every decoupling boundary;
	// the old→new linkage lives only in the rotating vantage's store.
	ModeRotate
	// ModeNaive propagates one trace ID end-to-end per request — the
	// planted vulnerable configuration the audit must convict.
	ModeNaive
)

// String renders the mode as its flag spelling.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeRotate:
		return "rotate"
	case ModeNaive:
		return "naive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a -trace-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return ModeOff, nil
	case "rotate":
		return ModeRotate, nil
	case "naive":
		return ModeNaive, nil
	default:
		return ModeOff, fmt.Errorf("wiretrace: unknown mode %q (want off, rotate, or naive)", s)
	}
}

// Value is one observed value mirrored into a span: the same
// (kind, value) pair the vantage admits to the knowledge ledger at the
// same moment. Spans carry values so the span store can be audited as
// a knowledge ledger in its own right.
type Value struct {
	Kind  core.Kind
	Value string
}

// Span is one vantage point's record of handling one message. All
// fields are immutable once End has been called; the Store's lock
// guards mutation before that.
type Span struct {
	Vantage string // observer/entity name, e.g. "Mix 1"
	Name    string // operation, e.g. "mixnet.hop"
	Trace   TraceID
	ID      SpanID
	Parent  SpanID // upstream span (possibly in another vantage's store)
	// RotatedTo is the fresh trace ID this vantage forwarded under
	// (ModeRotate only). The pair (Trace, RotatedTo) is the linkage
	// that exists nowhere but this local store.
	RotatedTo TraceID
	Src, Dst  string
	Start     time.Duration
	End       time.Duration
	Values    []Value
}

// Store is one vantage point's span store. Each vantage accumulates
// its own spans; nothing global holds the cross-vantage linkage.
type Store struct {
	Vantage string

	mu    sync.Mutex
	spans []*Span
}

// Spans returns a snapshot of the store's spans in admission order.
func (s *Store) Spans() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.spans...)
}

// Len reports the number of spans admitted so far.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}

// Plane is one run's trace plane: the mode, the per-vantage stores,
// and the ID generator. A nil *Plane (or ModeOff) is inert and every
// method is safe to call on it, so instrumented protocol code pays one
// pointer check when tracing is disabled.
type Plane struct {
	mode Mode

	ctr uint64 // atomic splitmix64 state for ID generation

	// sampled, when set, restricts Hop to propagated requests: a zero
	// inbound context means "this request was not sampled at its root"
	// and no span is opened. Root spans are unaffected.
	sampled uint32

	mu     sync.Mutex
	stores map[string]*Store
	clock  func() time.Duration
	// handoff carries contexts across direct-call hops, keyed by the
	// hash of the message bytes both sides hold — an out-of-band stand-
	// in for a wire header. FIFO per key: identical concurrent payloads
	// queue rather than overwrite.
	handoff map[string][]Context
}

// New creates a trace plane. The seed makes ID generation reproducible
// for a given admission order; IDs are opaque either way.
func New(mode Mode, seed int64) *Plane {
	if mode == ModeOff {
		return nil
	}
	return &Plane{
		mode:    mode,
		ctr:     uint64(seed),
		stores:  map[string]*Store{},
		handoff: map[string][]Context{},
	}
}

// Enabled reports whether the plane records anything.
func (p *Plane) Enabled() bool { return p != nil && p.mode != ModeOff }

// Mode returns the propagation policy (ModeOff for a nil plane).
func (p *Plane) Mode() Mode {
	if p == nil {
		return ModeOff
	}
	return p.mode
}

// SetHopSampling restricts span creation to sampled requests: with
// sampling on, a Hop whose inbound context is zero opens no span
// (returns nil), because a zero context at a non-root vantage means
// the request's root was not sampled. Root keeps minting traces. This
// is how a sampled load run keeps the per-request cost off the
// unsampled majority while the sampled slice is traced end to end.
func (p *Plane) SetHopSampling(on bool) {
	if p == nil {
		return
	}
	v := uint32(0)
	if on {
		v = 1
	}
	atomic.StoreUint32(&p.sampled, v)
}

// SetClock installs the timestamp source (a transport's Now, or a
// wall-clock closure in the benchmark harness). Nil-safe; without a
// clock all spans sit at t=0, which the audit ignores.
func (p *Plane) SetClock(clock func() time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.clock = clock
	p.mu.Unlock()
}

func (p *Plane) now() time.Duration {
	p.mu.Lock()
	c := p.clock
	p.mu.Unlock()
	if c == nil {
		return 0
	}
	return c()
}

// next64 draws one splitmix64 output; unique per call within a plane.
// The state steps by the splitmix64 increment, which Mix64 adds
// itself, so it hashes the state from before this call's step.
func (p *Plane) next64() uint64 {
	const step = 0x9E3779B97F4A7C15
	return telemetry.Mix64(atomic.AddUint64(&p.ctr, step) - step)
}

func (p *Plane) newTrace() TraceID {
	var t TraceID
	a, b := p.next64(), p.next64()
	for i := 0; i < 8; i++ {
		t[i] = byte(a >> (8 * i))
		t[8+i] = byte(b >> (8 * i))
	}
	if t.IsZero() {
		t[0] = 1
	}
	return t
}

func (p *Plane) newSpan() SpanID {
	var s SpanID
	a := p.next64()
	for i := 0; i < 8; i++ {
		s[i] = byte(a >> (8 * i))
	}
	if s.IsZero() {
		s[0] = 1
	}
	return s
}

// store returns (creating if needed) the vantage's span store.
func (p *Plane) store(vantage string) *Store {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.stores[vantage]
	if !ok {
		st = &Store{Vantage: vantage}
		p.stores[vantage] = st
	}
	return st
}

// Stores returns every vantage's store, sorted by vantage name.
func (p *Plane) Stores() []*Store {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]*Store, 0, len(p.stores))
	for _, st := range p.stores {
		out = append(out, st)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Vantage < out[j].Vantage })
	return out
}

// SpanCount reports the total number of spans across all stores.
func (p *Plane) SpanCount() int {
	n := 0
	for _, st := range p.Stores() {
		n += st.Len()
	}
	return n
}

// ActiveSpan is a span still being handled by its vantage. All methods
// are nil-safe so call sites stay unconditional.
type ActiveSpan struct {
	p  *Plane
	st *Store
	s  *Span
}

// Root opens a fresh root span (a client originating a request).
// Returns nil when the plane is disabled.
func (p *Plane) Root(vantage, name, src, dst string) *ActiveSpan {
	if !p.Enabled() {
		return nil
	}
	return p.open(vantage, name, Context{}, src, dst)
}

// Hop opens a span at vantage continuing the inbound context (a fresh
// trace when the context is zero). Returns nil when disabled, or when
// hop sampling is on and the request arrived without a context.
func (p *Plane) Hop(vantage, name string, inbound Context, src, dst string) *ActiveSpan {
	if !p.Enabled() {
		return nil
	}
	if inbound.IsZero() && atomic.LoadUint32(&p.sampled) != 0 {
		return nil
	}
	return p.open(vantage, name, inbound, src, dst)
}

func (p *Plane) open(vantage, name string, inbound Context, src, dst string) *ActiveSpan {
	sp := &Span{
		Vantage: vantage,
		Name:    name,
		Trace:   inbound.Trace,
		ID:      p.newSpan(),
		Parent:  inbound.Span,
		Src:     src,
		Dst:     dst,
		Start:   p.now(),
	}
	if sp.Trace.IsZero() {
		sp.Trace = p.newTrace()
	}
	st := p.store(vantage)
	st.mu.Lock()
	st.spans = append(st.spans, sp)
	st.mu.Unlock()
	return &ActiveSpan{p: p, st: st, s: sp}
}

// Observe mirrors a ledger observation into the span: the vantage's
// trace-plane knowledge must admit exactly what its protocol-plane
// knowledge admits, so the audit can hold the two to equality.
func (a *ActiveSpan) Observe(kind core.Kind, value string) {
	if a == nil {
		return
	}
	a.st.mu.Lock()
	a.s.Values = append(a.s.Values, Value{Kind: kind, Value: value})
	a.st.mu.Unlock()
}

// Context returns the same-trace continuation context (trace
// unchanged, this span as parent) — what a non-boundary hop, or the
// originating client, propagates outbound.
func (a *ActiveSpan) Context() Context {
	if a == nil {
		return Context{}
	}
	return Context{Trace: a.s.Trace, Span: a.s.ID}
}

// Forward returns the outbound context for a decoupling boundary.
// Under ModeRotate the trace ID is re-keyed — the fresh ID is recorded
// as RotatedTo in this span, and nowhere else — so downstream vantages
// share no trace handle with upstream ones. Under ModeNaive it is
// Context(): the global-ID configuration the audit must convict.
// Idempotent: repeated calls return the same context.
func (a *ActiveSpan) Forward() Context {
	if a == nil {
		return Context{}
	}
	if a.p.mode == ModeNaive {
		return a.Context()
	}
	a.st.mu.Lock()
	if a.s.RotatedTo.IsZero() {
		a.s.RotatedTo = a.p.newTrace()
	}
	out := Context{Trace: a.s.RotatedTo, Span: a.s.ID}
	a.st.mu.Unlock()
	return out
}

// End stamps the span's end time. Idempotent.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	t := a.p.now()
	a.st.mu.Lock()
	if a.s.End == 0 {
		a.s.End = t
	}
	if a.s.End < a.s.Start {
		a.s.End = a.s.Start
	}
	a.st.mu.Unlock()
}

// Handoff deposits an outbound context for a direct-call hop, keyed by
// the message bytes both caller and callee hold. This models a wire
// header for in-process protocol legs (the ODoH proxy's function-call
// interface, the DNS resolver chain) without changing their
// signatures: the context travels with the bytes, and only the party
// holding those bytes can claim it.
func (p *Plane) Handoff(payload []byte, ctx Context) {
	if !p.Enabled() || ctx.IsZero() {
		return
	}
	k := ledger.Hash(payload)
	p.mu.Lock()
	p.handoff[k] = append(p.handoff[k], ctx)
	p.mu.Unlock()
}

// TakeHandoff claims (FIFO) a context deposited for these bytes,
// returning the zero Context when none is pending.
func (p *Plane) TakeHandoff(payload []byte) Context {
	if !p.Enabled() {
		return Context{}
	}
	k := ledger.Hash(payload)
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.handoff[k]
	if len(q) == 0 {
		return Context{}
	}
	ctx := q[0]
	if len(q) == 1 {
		delete(p.handoff, k)
	} else {
		p.handoff[k] = q[1:]
	}
	return ctx
}
