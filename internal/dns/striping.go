package dns

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"sync"

	"decoupling/internal/dnswire"
)

// This file implements §5.1's "dynamic stitching": a client that
// distributes its queries across multiple recursive resolvers, limiting
// the information available about it at each (the paper's [18],
// Hounsel et al., "Encryption without Centralization").

// Strategy selects how a striped client spreads queries.
type Strategy int

// Striping strategies.
const (
	// StripeRandom picks a uniformly random resolver per query:
	// strongest per-resolver profile reduction, worst cache locality.
	StripeRandom Strategy = iota
	// StripeRoundRobin rotates deterministically: even load, a resolver
	// sees every 1/k-th query (including repeats of hot names).
	StripeRoundRobin
	// StripeByName hashes the query name to a resolver: each resolver
	// sees a disjoint slice of the namespace (best cache behaviour; a
	// resolver sees ALL queries for its slice of names).
	StripeByName
)

// ErrNoResolvers is returned when a striped client has no upstreams.
var ErrNoResolvers = errors.New("dns: striped client needs at least one resolver")

// StripedClient distributes a client's queries over several resolvers.
type StripedClient struct {
	ID        string
	Resolvers []*Resolver
	Strategy  Strategy

	mu   sync.Mutex
	rng  *mrand.Rand
	next int
	sent []int // per-resolver query counts
}

// NewStripedClient creates a striping client. seed drives the random
// strategy deterministically in tests.
func NewStripedClient(id string, resolvers []*Resolver, strategy Strategy, seed int64) (*StripedClient, error) {
	if len(resolvers) == 0 {
		return nil, ErrNoResolvers
	}
	return &StripedClient{
		ID: id, Resolvers: resolvers, Strategy: strategy,
		rng:  mrand.New(mrand.NewSource(seed)),
		sent: make([]int, len(resolvers)),
	}, nil
}

// pick chooses the resolver index for a query name.
func (c *StripedClient) pick(name string) int {
	switch c.Strategy {
	case StripeRoundRobin:
		i := c.next
		c.next = (c.next + 1) % len(c.Resolvers)
		return i
	case StripeByName:
		sum := sha256.Sum256([]byte(dnswire.CanonicalName(name)))
		return int(binary.BigEndian.Uint32(sum[:4]) % uint32(len(c.Resolvers)))
	default:
		return c.rng.Intn(len(c.Resolvers))
	}
}

// Resolve sends one query via the strategy-selected resolver.
func (c *StripedClient) Resolve(q *dnswire.Message) *dnswire.Message {
	name := ""
	if len(q.Questions) == 1 {
		name = q.Questions[0].Name
	}
	c.mu.Lock()
	i := c.pick(name)
	c.sent[i]++
	c.mu.Unlock()
	return c.Resolvers[i].Resolve(c.ID, q)
}

// Distribution returns the per-resolver query counts so far.
func (c *StripedClient) Distribution() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.sent...)
}

// ProfileCompleteness computes, for each resolver, the fraction of the
// client's distinct query names visible in that resolver's log — the
// §5.1 metric. allNames is the client's full distinct-name ground truth.
func ProfileCompleteness(client string, resolvers []*Resolver, allNames []string) []float64 {
	truth := map[string]bool{}
	for _, n := range allNames {
		truth[dnswire.CanonicalName(n)] = true
	}
	out := make([]float64, len(resolvers))
	if len(truth) == 0 {
		return out
	}
	for i, r := range resolvers {
		seen := map[string]bool{}
		for _, e := range r.Log() {
			if e.Client == client && truth[e.Name] {
				seen[e.Name] = true
			}
		}
		out[i] = float64(len(seen)) / float64(len(truth))
	}
	return out
}
