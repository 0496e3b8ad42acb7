// Package telemetry is the reproduction's zero-dependency tracing and
// metrics layer: hierarchical trace spans recorded against the simnet
// virtual clock (exported as JSONL), plus counters and fixed-bucket
// histograms with a Prometheus text exposition writer.
//
// Two design rules keep it honest:
//
//   - Determinism: span times come from a virtual clock (or are zero
//     when no simulation is attached), never from the wall. A seeded
//     experiment therefore produces byte-identical traces across runs
//     and across -parallel settings. Wall-clock readings are confined
//     to metrics (queue wait) and to Result fields that the default
//     report never renders.
//   - A disabled layer is free: every entry point is nil-receiver
//     safe, so instrumented hot paths (simnet delivery, ledger Saw)
//     pay exactly one nil pointer check when telemetry is off.
//
// The span hierarchy mirrors the system's layers: experiment →
// protocol phase → message hop. Hop spans are parented on the span
// that was current when the message was *sent*, so a relay chain
// (client → mix 1 → mix 2 → receiver) appears as nested spans even
// though each hop is a separate event-loop turn.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span or metric series.
type Attr struct {
	Key   string
	Value string
}

// A returns an Attr; it keeps instrumentation call sites short.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is one timed operation. Times are virtual-clock durations since
// the owning simulation's epoch. A nil *Span is valid and inert.
type Span struct {
	tr      *Tracer
	ID      uint64
	Parent  uint64 // 0 = root
	Name    string
	Start   time.Duration
	EndTime time.Duration
	Attrs   []Attr
	ended   bool
}

// Tracer records spans for one trace (one experiment). A nil *Tracer is
// valid and disabled. Construct with NewTracer.
type Tracer struct {
	mu     sync.Mutex
	name   string
	clock  func() time.Duration
	nextID uint64
	stack  []*Span // active synchronous span chain; top is Current
	spans  []*Span // every span in creation order
}

// NewTracer creates a tracer for the named trace. The clock defaults to
// zero until SetClock binds a virtual clock.
func NewTracer(name string) *Tracer { return &Tracer{name: name} }

// Name returns the trace name ("" for a nil tracer).
func (t *Tracer) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// SetClock binds the virtual clock used to stamp span start/end times.
// Simulations bind their Network.Now; anything else leaves the default
// zero clock so exported times stay deterministic.
func (t *Tracer) SetClock(clock func() time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

// now reads the clock without holding the tracer lock across the call
// (the clock may itself take a simulation lock).
func (t *Tracer) now() time.Duration {
	t.mu.Lock()
	clock := t.clock
	t.mu.Unlock()
	if clock == nil {
		return 0
	}
	return clock()
}

// Start opens a span as a child of the current span and makes it
// current. Returns nil (safely inert) on a nil tracer.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent uint64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].ID
	}
	return t.push(parent, name, now, attrs)
}

// StartAt opens a span with an explicit parent and start time and makes
// it current. A nil parent makes a root span. The simulator uses this
// for delivery spans: parent captured at send time, start = send time.
func (t *Tracer) StartAt(parent *Span, name string, start time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var pid uint64
	if parent != nil {
		pid = parent.ID
	}
	return t.push(pid, name, start, attrs)
}

// push allocates and registers a span. Caller holds t.mu.
func (t *Tracer) push(parent uint64, name string, start time.Duration, attrs []Attr) *Span {
	t.nextID++
	s := &Span{tr: t, ID: t.nextID, Parent: parent, Name: name, Start: start, Attrs: attrs}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s)
	return s
}

// PhasePrefix is the span-name prefix experiments use to mark protocol
// phases ("phase:forward", "phase:odoh", …). CurrentPhase strips it.
const PhasePrefix = "phase:"

// CurrentPhase returns the name (sans PhasePrefix) of the innermost
// open span marking a protocol phase, or "" when no phase span is open.
// The ledger joins observations to phases through this at Saw time, so
// audit evidence can say *when in the protocol* an entity learned a
// value. Safe on a nil tracer.
func (t *Tracer) CurrentPhase() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.stack) - 1; i >= 0; i-- {
		if name := t.stack[i].Name; strings.HasPrefix(name, PhasePrefix) {
			return name[len(PhasePrefix):]
		}
	}
	return ""
}

// Current returns the innermost open span, or nil.
func (t *Tracer) Current() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return nil
}

// End closes the span at the current clock reading.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.tr.now())
}

// EndAt closes the span at an explicit virtual time.
func (s *Span) EndAt(end time.Duration) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	if end < s.Start {
		end = s.Start
	}
	s.EndTime = end
	// Pop from the active stack (normally the top; search for safety).
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// Annotate appends attributes to an open span (e.g. a value only known
// after decryption).
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Attrs = append(s.Attrs, attrs...)
	s.tr.mu.Unlock()
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteJSONL writes every recorded span as one JSON object per line, in
// creation order. Unended spans are emitted with end_ns = start_ns.
// Field order and formatting are fixed, so equal span sequences produce
// byte-identical output.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	var b strings.Builder
	for _, s := range t.spans {
		end := s.EndTime
		if !s.ended {
			end = s.Start
		}
		b.Reset()
		b.WriteString(`{"trace":`)
		b.Write(jsonString(t.name))
		fmt.Fprintf(&b, `,"span":%d,"parent":%d,"name":`, s.ID, s.Parent)
		b.Write(jsonString(s.Name))
		fmt.Fprintf(&b, `,"start_ns":%d,"end_ns":%d`, s.Start.Nanoseconds(), end.Nanoseconds())
		if len(s.Attrs) > 0 {
			b.WriteString(`,"attrs":{`)
			for i, a := range s.Attrs {
				if i > 0 {
					b.WriteByte(',')
				}
				b.Write(jsonString(a.Key))
				b.WriteByte(':')
				b.Write(jsonString(a.Value))
			}
			b.WriteByte('}')
		}
		b.WriteString("}\n")
		if _, err := bw.WriteString(b.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // strings always marshal
		panic(err)
	}
	return b
}

// SpanRecord is the decoded form of one JSONL trace line.
type SpanRecord struct {
	Trace   string            `json:"trace"`
	Span    uint64            `json:"span"`
	Parent  uint64            `json:"parent"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// ParseJSONL decodes and validates a JSONL trace: every line must be a
// well-formed span object, ids must be unique per trace, parents must
// precede children, and end must not precede start.
func ParseJSONL(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	seen := map[string]map[uint64]bool{} // trace -> span ids
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var rec SpanRecord
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		var trailing json.RawMessage
		if err := dec.Decode(&trailing); err != io.EOF {
			return nil, fmt.Errorf("telemetry: trace line %d: trailing data after span object", line)
		}
		if rec.Trace == "" || rec.Name == "" || rec.Span == 0 {
			return nil, fmt.Errorf("telemetry: trace line %d: missing trace/name/span", line)
		}
		if rec.EndNS < rec.StartNS {
			return nil, fmt.Errorf("telemetry: trace line %d: end precedes start", line)
		}
		ids := seen[rec.Trace]
		if ids == nil {
			ids = map[uint64]bool{}
			seen[rec.Trace] = ids
		}
		if ids[rec.Span] {
			return nil, fmt.Errorf("telemetry: trace line %d: duplicate span id %d", line, rec.Span)
		}
		if rec.Parent != 0 && !ids[rec.Parent] {
			return nil, fmt.Errorf("telemetry: trace line %d: parent %d not yet seen", line, rec.Parent)
		}
		ids[rec.Span] = true
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Telemetry bundles one trace's tracer with a (possibly shared) metrics
// registry and a set of base labels stamped on every metric series. A
// nil *Telemetry disables everything; all methods are nil-safe, so
// instrumented code needs no conditionals beyond one pointer check.
type Telemetry struct {
	tr   *Tracer
	m    *Metrics
	base []Attr
}

// New builds a telemetry handle named name (the trace name, typically
// an experiment id). trace enables span recording; metrics may be nil.
// base labels (e.g. experiment="E2") are added to every metric series.
// Returns nil — everything disabled — when both sinks are off.
func New(name string, trace bool, metrics *Metrics, base ...Attr) *Telemetry {
	if !trace && metrics == nil {
		return nil
	}
	t := &Telemetry{m: metrics, base: base}
	if trace {
		t.tr = NewTracer(name)
	}
	return t
}

// Tracer returns the underlying tracer (nil when tracing is off).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// Metrics returns the underlying registry (nil when metrics are off).
func (t *Telemetry) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.m
}

// SetClock binds the virtual clock for span timestamps.
func (t *Telemetry) SetClock(clock func() time.Duration) { t.Tracer().SetClock(clock) }

// Start opens a child span of the current span.
func (t *Telemetry) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.tr.Start(name, attrs...)
}

// StartAt opens a span with explicit parent and start time.
func (t *Telemetry) StartAt(parent *Span, name string, start time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.tr.StartAt(parent, name, start, attrs...)
}

// Current returns the innermost open span.
func (t *Telemetry) Current() *Span {
	if t == nil {
		return nil
	}
	return t.tr.Current()
}

// CurrentPhase returns the innermost open protocol-phase name, or "".
func (t *Telemetry) CurrentPhase() string {
	if t == nil {
		return ""
	}
	return t.tr.CurrentPhase()
}

// Count adds n to the named counter, with the handle's base labels
// merged in.
func (t *Telemetry) Count(name, help string, n uint64, labels ...Attr) {
	if t == nil || t.m == nil {
		return
	}
	t.m.Counter(name, help, t.merge(labels)...).Add(n)
}

// Observe records v into the named fixed-bucket histogram, with the
// handle's base labels merged in.
func (t *Telemetry) Observe(name, help string, buckets []float64, v float64, labels ...Attr) {
	if t == nil || t.m == nil {
		return
	}
	t.m.Histogram(name, help, buckets, t.merge(labels)...).Observe(v)
}

// BaseLabels returns a copy of the handle's base labels, for callers
// that cache raw Counter/Histogram handles instead of going through
// Count/Observe.
func (t *Telemetry) BaseLabels() []Attr {
	if t == nil {
		return nil
	}
	return append([]Attr(nil), t.base...)
}

func (t *Telemetry) merge(labels []Attr) []Attr {
	if len(t.base) == 0 {
		return labels
	}
	out := make([]Attr, 0, len(t.base)+len(labels))
	out = append(out, t.base...)
	return append(out, labels...)
}

// SortAttrs sorts attributes by key (stable for equal keys).
func SortAttrs(attrs []Attr) {
	sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
}

// Mix64 is the splitmix64 finalizer (Vigna's SplitMix64): a cheap,
// high-quality bijection on uint64. It is the one hash behind the
// repo's seeded draws (backoff jitter, injected loss, chaos links and
// fault synthesis), so a (seed, index) pair maps to the same value
// wherever it is drawn.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
