// Package ledger records what information each entity in a running
// system actually observes, and derives empirical knowledge tuples from
// those observations.
//
// This is how the reproduction makes the paper's tables falsifiable:
// protocol implementations call Saw only from code paths where an entity
// genuinely has a value in hand (an address on an accepted connection, a
// name parsed out of a decrypted query), and the experiment — not the
// protocol code — decides which values count as sensitive by registering
// ground truth in a Classifier. An ODoH proxy that could read query
// names would inevitably report them, the classifier would mark them
// sensitive, and the derived tuple would diverge from the paper's table.
//
// Observations also carry linkage handles (connection ids, digests of
// wire bytes). Entities that saw the same handle can join their records;
// entities that only saw re-encrypted bytes cannot. The adversary
// package builds its collusion analysis on exactly this.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/telemetry"
)

// Observation is a single "entity X saw value V" event.
type Observation struct {
	Observer string
	Kind     core.Kind
	Label    string     // tuple axis label, e.g. "" or "H"/"N" for PGPP
	Level    core.Level // classification of the observed value
	Subject  string     // ground-truth subject, if the value is registered
	Value    string     // the value as observed
	Handles  []string   // linkage handles attached by the observer
	Time     time.Duration

	// Recognized reports whether the classifier had ground truth
	// registered for the value. Unrecognized values are opaque blobs
	// (ciphertexts, padding) whose concrete bytes are usually
	// run-dependent; audit renderers redact them.
	Recognized bool
	// Phase is the protocol phase open when the observation was
	// admitted (joined from the telemetry span stack); "" when the
	// ledger is uninstrumented or no phase span is open.
	Phase string

	// seq is the ledger-global admission order, used to reconstruct a
	// total order across per-observer shards.
	seq uint64
}

// Seq returns the ledger-global admission sequence number (1-based).
// Provenance tooling uses it to cross-reference evidence; it is only
// comparable between observations of the same ledger.
func (o Observation) Seq() uint64 { return o.seq }

// classEntry is the registered classification of one concrete value.
type classEntry struct {
	level   core.Level
	subject string
	label   string
}

// Classifier holds the experiment's ground truth: which concrete values
// constitute sensitive identities or sensitive data, which subject each
// belongs to, and which tuple axis (label) it falls on. Values never
// registered are treated as non-sensitive with an empty label — an
// opaque ciphertext carries no recognised information.
type Classifier struct {
	mu         sync.RWMutex
	identities map[string]classEntry
	data       map[string]classEntry
}

// NewClassifier returns an empty classifier.
func NewClassifier() *Classifier {
	return &Classifier{
		identities: map[string]classEntry{},
		data:       map[string]classEntry{},
	}
}

// RegisterIdentity records that the concrete value (e.g. an address
// string) is an identity of subject at the given level on axis label.
func (c *Classifier) RegisterIdentity(value, subject, label string, level core.Level) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.identities[value] = classEntry{level: level, subject: subject, label: label}
}

// RegisterData records that the concrete value (e.g. a query name or
// URL) is data of subject at the given level on axis label.
func (c *Classifier) RegisterData(value, subject, label string, level core.Level) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data[value] = classEntry{level: level, subject: subject, label: label}
}

func (c *Classifier) classify(kind core.Kind, value string) (classEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.data
	if kind == core.Identity {
		m = c.identities
	}
	if e, ok := m[value]; ok {
		return e, true
	}
	return classEntry{level: core.NonSensitive}, false
}

// shard holds one observer's append-only observation log and the
// summaries that reads use instead of rescanning it. Each observer gets
// its own lock, so concurrent observers never contend with each other
// on the hot Saw path.
//
// The summaries are exact: classification happens at admission, so a
// stored Level never changes and the running maximum equals what a
// rescan of obs would find.
type shard struct {
	mu  sync.Mutex
	obs []Observation

	// levels holds the highest level admitted per (kind, label) axis;
	// axes seen only at NonSensitive are absent. An observer sees a
	// handful of axes, so a scan of this slice is cheaper on the
	// admission path than hashing into a map.
	levels []axisLevel
	// handles is the set of distinct linkage handles, mapping each to
	// its canonical string: admission rewrites the ledger's copy of an
	// observation's handles to these, so a repeated handle is stored
	// once however many observations carry it.
	handles map[string]string
	// sorted holds the distinct handles in order as of the last read;
	// pending holds those admitted since, unsorted. sortedHandles
	// merges the two.
	sorted, pending []string

	// obsCounter is the cached telemetry counter for this observer,
	// nil when the ledger is uninstrumented (Counter.Add is nil-safe).
	obsCounter *telemetry.Counter
}

// admit folds an observation into the shard's summaries, interning its
// handles in place; o.Handles must be the ledger's own copy, never a
// caller's slice. Callers hold s.mu and append o to s.obs.
func (s *shard) admit(o *Observation) {
	if o.Level > core.NonSensitive {
		s.raise(axis{o.Kind, o.Label}, o.Level)
	}
	for i, h := range o.Handles {
		if canon, ok := s.handles[h]; ok {
			o.Handles[i] = canon
			continue
		}
		s.handles[h] = h
		s.pending = append(s.pending, h)
	}
}

// axisLevel is one entry of a shard's per-axis maximum.
type axisLevel struct {
	axis  axis
	level core.Level
}

// raise lifts a's running maximum to at least lvl. Callers hold s.mu.
func (s *shard) raise(a axis, lvl core.Level) {
	for i := range s.levels {
		if s.levels[i].axis == a {
			s.levels[i].level = max(s.levels[i].level, lvl)
			return
		}
	}
	s.levels = append(s.levels, axisLevel{a, lvl})
}

// sortedHandles sorts the handles admitted since the last read, merges
// them into the sorted summary and returns it. The two sets are
// disjoint, so the merge, run back to front in sorted's own storage,
// never meets equal keys. Callers hold s.mu and must not retain the
// result past unlocking.
func (s *shard) sortedHandles() []string {
	if len(s.pending) == 0 {
		return s.sorted
	}
	sort.Strings(s.pending)
	i, j := len(s.sorted)-1, len(s.pending)-1
	s.sorted = append(s.sorted, s.pending...)
	for k := len(s.sorted) - 1; j >= 0; k-- {
		if i >= 0 && s.sorted[i] > s.pending[j] {
			s.sorted[k] = s.sorted[i]
			i--
		} else {
			s.sorted[k] = s.pending[j]
			j--
		}
	}
	s.pending = s.pending[:0]
	return s.sorted
}

// Ledger accumulates observations for one experiment run. The zero
// value is not usable; construct with New. Ledger is safe for
// concurrent use — real-loopback systems observe from handler
// goroutines — and lock-striped per observer, so observers do not
// contend with each other when appending.
type Ledger struct {
	classifier *Classifier
	clock      func() time.Duration

	seq atomic.Uint64 // global admission counter, total order across shards

	// tel counts observations per observer when instrumented; nil by
	// default so Saw pays one pointer check.
	tel *telemetry.Telemetry

	mu     sync.RWMutex // guards the shards map, not the logs
	shards map[string]*shard
}

// New creates a ledger bound to a classifier. clock may be nil, in which
// case observations are timestamped zero; simulations pass their virtual
// clock so timing attacks can be evaluated.
func New(c *Classifier, clock func() time.Duration) *Ledger {
	if c == nil {
		c = NewClassifier()
	}
	return &Ledger{classifier: c, clock: clock, shards: map[string]*shard{}}
}

// Classifier returns the bound classifier.
func (l *Ledger) Classifier() *Classifier { return l.classifier }

// Instrument attaches a telemetry sink: every admitted observation
// increments a per-observer counter. Call before concurrent use; a nil
// tel is a no-op.
func (l *Ledger) Instrument(tel *telemetry.Telemetry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tel = tel
	if tel == nil {
		return
	}
	for name, s := range l.shards {
		s.obsCounter = observationCounter(tel, name)
	}
}

func observationCounter(tel *telemetry.Telemetry, observer string) *telemetry.Counter {
	m := tel.Metrics()
	if m == nil {
		return nil
	}
	return m.Counter(telemetry.MetricLedgerObservations,
		"Observations admitted per ledger shard (observer).",
		append(tel.BaseLabels(), telemetry.A("observer", observer))...)
}

// lookup returns the observer's shard, or nil if it never observed.
func (l *Ledger) lookup(observer string) *shard {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.shards[observer]
}

// shardFor returns the observer's shard, creating it on first use. The
// fast path is a read-locked map lookup.
func (l *Ledger) shardFor(observer string) *shard {
	s := l.lookup(observer)
	if s != nil {
		return s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if s = l.shards[observer]; s == nil {
		s = &shard{handles: map[string]string{}}
		if l.tel != nil {
			s.obsCounter = observationCounter(l.tel, observer)
		}
		l.shards[observer] = s
	}
	return s
}

// lockAll acquires every shard lock in a stable order and returns the
// locked shards keyed by observer, giving cross-observer snapshot APIs a
// consistent point-in-time view. Callers must call the returned unlock.
func (l *Ledger) lockAll() (map[string]*shard, func()) {
	l.mu.RLock()
	names := make([]string, 0, len(l.shards))
	for name := range l.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	shards := make(map[string]*shard, len(names))
	for _, name := range names {
		s := l.shards[name]
		s.mu.Lock()
		shards[name] = s
	}
	l.mu.RUnlock()
	return shards, func() {
		for _, name := range names {
			shards[name].mu.Unlock()
		}
	}
}

// Saw records that observer saw value of the given kind, with optional
// linkage handles. Classification (level, subject, axis label) comes
// from the classifier, never from the protocol code.
func (l *Ledger) Saw(observer string, kind core.Kind, value string, handles ...string) {
	e, recognized := l.classifier.classify(kind, value)
	o := [1]Observation{{
		Observer:   observer,
		Kind:       kind,
		Label:      e.label,
		Level:      e.level,
		Subject:    e.subject,
		Value:      value,
		Handles:    append([]string(nil), handles...),
		Recognized: recognized,
	}}
	l.record(observer, o[:])
}

// Entry is one observation in a SawBatch: what a single protocol step
// put in front of an observer.
type Entry struct {
	Kind    core.Kind
	Value   string
	Handles []string
}

// SawBatch admits a group of observations for one observer atomically:
// one shard-lock acquisition and one contiguous block of the global
// admission counter, instead of per-observation locking. Protocol steps
// that observe several values at once (a proxy seeing a client identity
// and a ciphertext on the same request) use this, which is what keeps
// shard contention flat when thousands of handler goroutines admit
// concurrently on the real transport.
//
// In a sequential run SawBatch assigns exactly the seq numbers the
// equivalent consecutive Saw calls would, so audit goldens are
// unaffected by converting call sites.
func (l *Ledger) SawBatch(observer string, entries []Entry) {
	if len(entries) == 0 {
		return
	}
	// A protocol step puts few values in front of an observer, so the
	// batch is staged on the stack and its handle copies share one
	// allocation, capped per entry so that appending to one entry's
	// handles cannot overwrite the next's.
	var staged [4]Observation
	obs := staged[:]
	if len(entries) > len(staged) {
		obs = make([]Observation, len(entries))
	}
	obs = obs[:len(entries)]
	n := 0
	for _, in := range entries {
		n += len(in.Handles)
	}
	handles := make([]string, 0, n)
	for i, in := range entries {
		e, recognized := l.classifier.classify(in.Kind, in.Value)
		var own []string // nil when the entry carries no handles, as from Saw
		if len(in.Handles) > 0 {
			lo := len(handles)
			handles = append(handles, in.Handles...)
			own = handles[lo:len(handles):len(handles)]
		}
		obs[i] = Observation{
			Observer:   observer,
			Kind:       in.Kind,
			Label:      e.label,
			Level:      e.level,
			Subject:    e.subject,
			Value:      in.Value,
			Handles:    own,
			Recognized: recognized,
		}
	}
	l.record(observer, obs)
}

// record is the admission tail Saw and SawBatch share: it stamps the
// observations of one protocol step with one clock read and the current
// phase, then admits them to the observer's shard under one lock with a
// contiguous block of the global admission counter. It copies obs, so
// callers may stage it on the stack.
func (l *Ledger) record(observer string, obs []Observation) {
	if l.clock != nil {
		// One clock read for the step: its observations were made at a
		// single instant.
		t := l.clock()
		for i := range obs {
			obs[i].Time = t
		}
	}
	if l.tel != nil { // one pointer check when uninstrumented
		phase := l.tel.CurrentPhase()
		for i := range obs {
			obs[i].Phase = phase
		}
	}
	s := l.shardFor(observer)
	s.mu.Lock()
	base := l.seq.Add(uint64(len(obs))) - uint64(len(obs))
	for i := range obs {
		obs[i].seq = base + uint64(i) + 1
		s.admit(&obs[i])
	}
	s.obs = append(s.obs, obs...)
	s.mu.Unlock()
	s.obsCounter.Add(uint64(len(obs))) // nil-safe; nil unless instrumented
}

// SawIdentity is shorthand for Saw with core.Identity.
func (l *Ledger) SawIdentity(observer, value string, handles ...string) {
	l.Saw(observer, core.Identity, value, handles...)
}

// SawData is shorthand for Saw with core.Data.
func (l *Ledger) SawData(observer, value string, handles ...string) {
	l.Saw(observer, core.Data, value, handles...)
}

// Observations returns a copy of all recorded observations in global
// admission order, merged consistently across observer shards.
func (l *Ledger) Observations() []Observation {
	shards, unlock := l.lockAll()
	var out []Observation
	for _, s := range shards {
		out = append(out, s.obs...)
	}
	unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// ByObserver returns the observations recorded by one entity, in the
// order the entity recorded them.
func (l *Ledger) ByObserver(name string) []Observation {
	s := l.lookup(name)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Observation(nil), s.obs...)
}

// Len reports the number of recorded observations.
func (l *Ledger) Len() int {
	shards, unlock := l.lockAll()
	defer unlock()
	n := 0
	for _, s := range shards {
		n += len(s.obs)
	}
	return n
}

// ObserverStats summarizes one observer's shard: how many observations
// it admitted and how many distinct linkage handles it holds.
type ObserverStats struct {
	Observer     string
	Observations int
	Handles      int
}

// Stats summarizes the ledger's shard occupancy: per-observer counts
// (sorted by observer name) plus the total across shards. It is the
// cheap introspection surface behind cmd/experiments -stats.
type Stats struct {
	Observers []ObserverStats
	Total     int
}

// Stats computes a consistent point-in-time summary across all shards.
func (l *Ledger) Stats() Stats {
	shards, unlock := l.lockAll()
	defer unlock()
	var st Stats
	names := make([]string, 0, len(shards))
	for name := range shards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := shards[name]
		st.Observers = append(st.Observers, ObserverStats{
			Observer:     name,
			Observations: len(s.obs),
			Handles:      len(s.handles),
		})
		st.Total += len(s.obs)
	}
	return st
}

// Handles returns the sorted distinct linkage handles an entity holds;
// an empty, non-nil slice if it holds none or never observed.
func (l *Ledger) Handles(observer string) []string {
	s := l.lookup(observer)
	if s == nil {
		return []string{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sorted := s.sortedHandles()
	out := make([]string, len(sorted))
	copy(out, sorted)
	return out
}

// DeriveTuple computes an entity's empirical knowledge tuple using the
// template's axes: for each (kind, label) component in template, the
// level is the maximum observed on that axis (NonSensitive if the entity
// saw nothing there). Observations of Sensitive or Partial level on axes
// absent from the template are appended, so unexpected leaks surface as
// extra components rather than vanishing.
func (l *Ledger) DeriveTuple(observer string, template core.Tuple) core.Tuple {
	maxLevel := map[axis]core.Level{}
	if s := l.lookup(observer); s != nil {
		s.mu.Lock()
		for _, al := range s.levels {
			maxLevel[al.axis] = al.level
		}
		s.mu.Unlock()
	}
	covered := map[axis]bool{}
	out := make(core.Tuple, 0, len(template))
	for _, c := range template {
		a := axis{c.Kind, c.Label}
		covered[a] = true
		out = append(out, core.Component{Kind: c.Kind, Label: c.Label, Level: maxLevel[a]})
	}
	// Surface unexpected sensitive/partial knowledge.
	extras := make([]axis, 0)
	for a, lvl := range maxLevel {
		if !covered[a] && lvl > core.NonSensitive {
			extras = append(extras, a)
		}
	}
	sortExtras(extras, maxLevel)
	for _, a := range extras {
		out = append(out, core.Component{Kind: a.kind, Label: a.label, Level: maxLevel[a]})
	}
	return out
}

// axis is one knowledge-tuple axis: a (kind, label) pair.
type axis struct {
	kind  core.Kind
	label string
}

// sortExtras orders the extra (off-template) axes deterministically:
// by kind, then label, then descending level. Axes are unique per
// (kind, label), so the level tie-break only matters as a defensive
// guarantee that reports stay byte-stable should two extras ever share
// a kind+label prefix after future axis refactors.
func sortExtras(extras []axis, maxLevel map[axis]core.Level) {
	sort.Slice(extras, func(i, j int) bool {
		if extras[i].kind != extras[j].kind {
			return extras[i].kind < extras[j].kind
		}
		if extras[i].label != extras[j].label {
			return extras[i].label < extras[j].label
		}
		return maxLevel[extras[i]] > maxLevel[extras[j]]
	})
}

// DeriveSystem builds a measured core.System shaped like expected: same
// entities, tuples derived from observations, links set to each entity's
// observed handles. The user entity keeps its modeled tuple (the user
// trivially knows their own identity and data; implementations do not
// instrument the user observing themself). Shared-secret structures are
// copied from the expected model — they describe the protocol's algebra,
// not an observation.
func (l *Ledger) DeriveSystem(expected *core.System) *core.System {
	out := &core.System{
		Name:          expected.Name + " (measured)",
		Section:       expected.Section,
		SharedSecrets: expected.SharedSecrets,
		Notes:         "derived from runtime observations",
	}
	for _, e := range expected.Entities {
		ne := core.Entity{Name: e.Name, User: e.User}
		if e.User {
			ne.Knows = e.Knows
		} else {
			ne.Knows = l.DeriveTuple(e.Name, e.Knows)
			ne.Links = l.Handles(e.Name)
		}
		out.Entities = append(out.Entities, ne)
	}
	return out
}

// Hash produces a stable linkage handle from wire bytes: two entities
// that saw the same bytes (and only they) share the handle. Truncated
// SHA-256, hex-encoded.
func Hash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// ConnHandle produces a linkage handle for a shared connection or
// session named by both endpoints, e.g. ConnHandle("client7", "relay1").
func ConnHandle(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
