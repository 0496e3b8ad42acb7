// Package dns implements a small but functional DNS ecosystem —
// authoritative zones, authoritative servers, and a caching recursive
// resolver — used as the substrate for the oblivious DNS systems
// (internal/odns, internal/odoh) and the §5.1 resolver-striping
// experiment.
//
// The privacy-relevant behaviour is instrumented: a resolver operator
// learns (client identity, query name) for every query it resolves, and
// an authoritative operator learns (resolver identity, query name).
// These observations feed the ledger from which empirical decoupling
// tuples are derived.
package dns

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/telemetry/wiretrace"
)

// Zone holds authoritative records under one origin.
type Zone struct {
	Origin string // canonical, e.g. "example.com."
	mu     sync.RWMutex
	rrs    map[string]map[dnswire.Type][]dnswire.RR
}

// NewZone creates an empty zone for origin.
func NewZone(origin string) *Zone {
	return &Zone{
		Origin: dnswire.CanonicalName(origin),
		rrs:    map[string]map[dnswire.Type][]dnswire.RR{},
	}
}

// Add inserts a record; the record name must fall under the origin.
func (z *Zone) Add(rr dnswire.RR) error {
	name := dnswire.CanonicalName(rr.Name)
	if !InZone(name, z.Origin) {
		return fmt.Errorf("dns: record %q outside zone %q", name, z.Origin)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.rrs[name] == nil {
		z.rrs[name] = map[dnswire.Type][]dnswire.RR{}
	}
	rr.Name = name
	z.rrs[name][rr.Type] = append(z.rrs[name][rr.Type], rr)
	return nil
}

// Lookup returns records of the given type at name.
func (z *Zone) Lookup(name string, t dnswire.Type) ([]dnswire.RR, dnswire.RCode) {
	name = dnswire.CanonicalName(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	types, ok := z.rrs[name]
	if !ok {
		return nil, dnswire.RCodeNXDomain
	}
	if rrs := types[t]; len(rrs) > 0 {
		return append([]dnswire.RR(nil), rrs...), dnswire.RCodeNoError
	}
	// Name exists but not this type.
	return nil, dnswire.RCodeNoError
}

// InZone reports whether name falls under origin (both canonical).
func InZone(name, origin string) bool {
	if origin == "." {
		return true
	}
	return name == origin || strings.HasSuffix(name, "."+origin)
}

// Authority is anything that can answer queries authoritatively: a
// static AuthServer, or a protocol endpoint like the ODNS oblivious
// resolver that synthesizes answers.
type Authority interface {
	// Serves reports whether this authority answers for name.
	Serves(name string) bool
	// Handle answers a single-question query from the named party.
	Handle(from string, q *dnswire.Message) *dnswire.Message
}

// AuthServer is an authoritative server for one or more zones.
type AuthServer struct {
	Name  string // entity name for the ledger, e.g. "Origin"
	Zones []*Zone
	// Ledger, if set, records what this operator observes.
	Ledger *ledger.Ledger
	// Wire, if set, opens a wall-clock span per handled query,
	// continuing the context handed off with the query name and
	// mirroring the ledger observations. The origin is a terminal hop:
	// it forwards nowhere, so it never rotates.
	Wire *wiretrace.Plane
}

// zoneFor returns the most specific zone containing name, or nil.
func (s *AuthServer) zoneFor(name string) *Zone {
	var best *Zone
	for _, z := range s.Zones {
		if InZone(name, z.Origin) {
			if best == nil || len(z.Origin) > len(best.Origin) {
				best = z
			}
		}
	}
	return best
}

// Serves reports whether the server is authoritative for name.
func (s *AuthServer) Serves(name string) bool {
	return s.zoneFor(dnswire.CanonicalName(name)) != nil
}

// Handle answers a query. from identifies the querying party (a
// resolver address) for observation purposes.
func (s *AuthServer) Handle(from string, q *dnswire.Message) *dnswire.Message {
	r := q.Reply()
	r.Authoritative = true
	if len(q.Questions) != 1 {
		r.RCode = dnswire.RCodeFormErr
		return r
	}
	question := q.Questions[0]
	name := dnswire.CanonicalName(question.Name)
	hop := s.Wire.Hop(s.Name, "dns.auth.handle", s.Wire.TakeHandoff([]byte(name)), from, "")
	defer hop.End()
	if s.Ledger != nil {
		// The connection to the querying party and the query name bytes
		// are both join keys: anyone else who saw the same name string
		// on a wire (the forwarding resolver) can correlate records.
		h := ledger.ConnHandle(from, s.Name)
		nameH := ledger.Hash([]byte(name))
		s.Ledger.SawIdentity(s.Name, from, h, nameH)
		s.Ledger.SawData(s.Name, name, h, nameH)
		hop.Observe(core.Identity, from)
		hop.Observe(core.Data, name)
	}
	z := s.zoneFor(name)
	if z == nil {
		r.RCode = dnswire.RCodeRefused
		return r
	}
	rrs, rcode := z.Lookup(name, question.Type)
	r.RCode = rcode
	r.Answers = rrs
	return r
}

type cacheKey struct {
	name string
	typ  dnswire.Type
}

type cacheEntry struct {
	rrs     []dnswire.RR
	rcode   dnswire.RCode
	expires time.Duration
}

// QueryLogEntry is what a resolver operator's logs contain: exactly the
// coupling of who (client) with what (name) that the oblivious systems
// remove.
type QueryLogEntry struct {
	Client string
	Name   string
	Time   time.Duration
}

// Resolver is a caching recursive resolver. It reaches authoritative
// servers through direct references — the iterative walk from the root
// is elided since referral mechanics are irrelevant to the decoupling
// analysis.
type Resolver struct {
	Name  string
	Auths []Authority
	// Ledger, if set, records what this operator observes.
	Ledger *ledger.Ledger
	// Wire, if set, opens a wall-clock span per resolved query and
	// rotates the trace ID before the authoritative leg: a forwarding
	// resolver is a vantage boundary like any other.
	Wire *wiretrace.Plane
	// Clock supplies virtual time for TTL handling; nil means time
	// stands still (cache entries never expire).
	Clock func() time.Duration

	mu    sync.Mutex
	cache map[cacheKey]cacheEntry
	log   []QueryLogEntry

	hits, misses uint64
}

// NewResolver creates a resolver named name that delegates to auths.
func NewResolver(name string, auths []Authority, lg *ledger.Ledger, clock func() time.Duration) *Resolver {
	return &Resolver{
		Name: name, Auths: auths, Ledger: lg, Clock: clock,
		cache: map[cacheKey]cacheEntry{},
	}
}

func (r *Resolver) now() time.Duration {
	if r.Clock == nil {
		return 0
	}
	return r.Clock()
}

// Resolve answers q on behalf of client (a client address/identity).
// The resolver observes the client identity and the plaintext query
// name — the baseline-DNS coupling the paper's §3.2.2 systems remove.
func (r *Resolver) Resolve(client string, q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	if len(q.Questions) != 1 {
		resp.RCode = dnswire.RCodeFormErr
		return resp
	}
	question := q.Questions[0]
	name := dnswire.CanonicalName(question.Name)
	hop := r.Wire.Hop(r.Name, "dns.resolve", r.Wire.TakeHandoff([]byte(name)), client, "")
	defer hop.End()

	r.mu.Lock()
	r.log = append(r.log, QueryLogEntry{Client: client, Name: name, Time: r.now()})
	r.mu.Unlock()
	if r.Ledger != nil {
		h := ledger.ConnHandle(client, r.Name)
		nameH := ledger.Hash([]byte(name))
		r.Ledger.SawIdentity(r.Name, client, h, nameH)
		r.Ledger.SawData(r.Name, name, h, nameH)
		hop.Observe(core.Identity, client)
		hop.Observe(core.Data, name)
	}

	key := cacheKey{name, question.Type}
	r.mu.Lock()
	if e, ok := r.cache[key]; ok && (r.Clock == nil || e.expires > r.now()) {
		r.hits++
		r.mu.Unlock()
		resp.RCode = e.rcode
		resp.Answers = append([]dnswire.RR(nil), e.rrs...)
		return resp
	}
	r.misses++
	r.mu.Unlock()

	var auth Authority
	for _, a := range r.Auths {
		if a.Serves(name) {
			auth = a
			break
		}
	}
	if auth == nil {
		resp.RCode = dnswire.RCodeServFail
		return resp
	}
	r.Wire.Handoff([]byte(name), hop.Forward())
	upstream := auth.Handle(r.Name, q)
	resp.RCode = upstream.RCode
	resp.Answers = upstream.Answers

	ttl := time.Duration(300) * time.Second
	for _, rr := range upstream.Answers {
		if t := time.Duration(rr.TTL) * time.Second; t < ttl {
			ttl = t
		}
	}
	r.mu.Lock()
	r.cache[key] = cacheEntry{
		rrs:     append([]dnswire.RR(nil), upstream.Answers...),
		rcode:   upstream.RCode,
		expires: r.now() + ttl,
	}
	r.mu.Unlock()
	return resp
}

// Log returns a copy of the resolver operator's query log.
func (r *Resolver) Log() []QueryLogEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]QueryLogEntry(nil), r.log...)
}

// CacheStats returns cumulative cache hits and misses.
func (r *Resolver) CacheStats() (hits, misses uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses
}
