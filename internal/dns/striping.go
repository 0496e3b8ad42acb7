package dns

import (
	"errors"
	mrand "math/rand"
	"sync"

	"decoupling/internal/dnswire"
)

// This file implements §5.1's "dynamic stitching": a client that
// distributes its queries across multiple recursive resolvers, limiting
// the information available about it at each (the paper's [18],
// Hounsel et al., "Encryption without Centralization").

// ErrNoResolvers is returned when a striped client has no upstreams.
var ErrNoResolvers = errors.New("dns: striped client needs at least one resolver")

// StripedClient distributes a client's queries over several resolvers,
// picking a uniformly random one per query: the strongest per-resolver
// profile reduction, at the cost of cache locality.
type StripedClient struct {
	ID        string
	Resolvers []*Resolver

	mu  sync.Mutex
	rng *mrand.Rand
}

// NewStripedClient creates a striping client. seed drives the resolver
// choice deterministically.
func NewStripedClient(id string, resolvers []*Resolver, seed int64) (*StripedClient, error) {
	if len(resolvers) == 0 {
		return nil, ErrNoResolvers
	}
	return &StripedClient{ID: id, Resolvers: resolvers, rng: mrand.New(mrand.NewSource(seed))}, nil
}

// Resolve sends one query via a randomly chosen resolver.
func (c *StripedClient) Resolve(q *dnswire.Message) *dnswire.Message {
	c.mu.Lock()
	i := c.rng.Intn(len(c.Resolvers))
	c.mu.Unlock()
	return c.Resolvers[i].Resolve(c.ID, q)
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
