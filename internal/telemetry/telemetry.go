// Package telemetry is the reproduction's zero-dependency metrics
// layer: counters and fixed-bucket histograms, wall-clock gauges and
// streaming summaries (wallclock.go), a Prometheus text exposition
// writer with a strict round-trip parser, a run sampler, and the
// /metrics and /statusz server. A Telemetry handle also carries the
// protocol-phase marker that the knowledge ledger stamps on each
// observation. Spans have one home, the wire-trace plane (package
// wiretrace), whose per-vantage stores are audited like any other
// observer.
//
// Two design rules keep it honest:
//
//   - Determinism: counter and histogram updates commute and the
//     exposition is sorted, so a seeded experiment exports the same
//     series at any -parallel setting. Wall-clock readings are
//     confined to metrics (queue wait) and to Result fields that the
//     default report never renders.
//   - A disabled layer is free: every entry point is nil-receiver
//     safe, so instrumented hot paths (simnet delivery, ledger Saw)
//     pay exactly one nil pointer check when telemetry is off.
package telemetry

import (
	"sort"
	"sync"
)

// Attr is one key/value label on a metric series.
type Attr struct {
	Key   string
	Value string
}

// A returns an Attr; it keeps instrumentation call sites short.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Telemetry bundles a (possibly shared) metrics registry, a set of
// base labels stamped on every metric series, and the protocol-phase
// marker the ledger reads. A nil *Telemetry disables everything; all
// methods are nil-safe, so instrumented code needs no conditionals
// beyond one pointer check.
type Telemetry struct {
	m      *Metrics
	base   []Attr
	phases bool

	mu     sync.Mutex
	nextID uint64
	open   []phase // open phases, innermost last
}

// phase is one open protocol phase; id tells apart equal names.
type phase struct {
	id   uint64
	name string
}

// New builds a telemetry handle. phases enables the protocol-phase
// marker (Phase, CurrentPhase); metrics may be nil. base labels (e.g.
// experiment="E2") are added to every metric series. Returns nil —
// everything disabled — when both are off.
func New(phases bool, metrics *Metrics, base ...Attr) *Telemetry {
	if !phases && metrics == nil {
		return nil
	}
	return &Telemetry{m: metrics, base: base, phases: phases}
}

// Metrics returns the underlying registry (nil when metrics are off).
func (t *Telemetry) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.m
}

// Phase opens the named protocol phase ("forward", "reply", …) and
// returns the func that closes it. Phases nest: CurrentPhase reports
// the innermost open one. Closing removes the phase wherever it sits,
// so closing an outer phase first leaves the inner one current, and a
// second close is a no-op. Without the phase marker (a nil handle or
// New(false, …)) nothing is recorded.
func (t *Telemetry) Phase(name string) (end func()) {
	if t == nil || !t.phases {
		return func() {}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.open = append(t.open, phase{id: id, name: name})
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i].id == id {
				t.open = append(t.open[:i], t.open[i+1:]...)
				return
			}
		}
	}
}

// CurrentPhase returns the name of the innermost open protocol phase,
// or "" when none is open. The ledger joins observations to phases
// through this at Saw time, so audit evidence can say *when in the
// protocol* an entity learned a value.
func (t *Telemetry) CurrentPhase() string {
	if t == nil || !t.phases {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n > 0 {
		return t.open[n-1].name
	}
	return ""
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
