package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// This file models when users show up and how long they stay — the
// temporal half of the workload, feeding the transport load generator.
// Request counts alone miss the property that stresses a decoupled
// deployment: arrivals are bursty (Poisson with a heavy head) and
// populations churn, so proxies see a constantly shifting set of
// concurrent clients rather than a fixed cohort.

// Arrivals generates a Poisson arrival process: exponential
// inter-arrival gaps around a mean rate. Deterministic per seed.
type Arrivals struct {
	rng  *rand.Rand
	mean float64 // mean gap in seconds
}

// NewArrivals creates an arrival process averaging ratePerSec events
// per second.
func NewArrivals(seed int64, ratePerSec float64) (*Arrivals, error) {
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("workload: arrival rate %v must be > 0", ratePerSec)
	}
	return &Arrivals{rng: rand.New(rand.NewSource(seed)), mean: 1 / ratePerSec}, nil
}

// Next returns the gap until the next arrival: exponentially
// distributed, so arrivals cluster the way independent users do.
func (a *Arrivals) Next() time.Duration {
	gap := a.rng.ExpFloat64() * a.mean
	return time.Duration(gap * float64(time.Second))
}

// Sessions generates session lengths and churn: how many requests a
// client issues before departing, log-normal-ish so most sessions are
// short and a heavy tail stays connected through many requests —
// matching the shape proxy operators report.
type Sessions struct {
	rng    *rand.Rand
	median float64
	sigma  float64
}

// NewSessions creates a session-length model with the given median
// request count; sigma controls tail heaviness (0.8 is web-like).
func NewSessions(seed int64, median int, sigma float64) (*Sessions, error) {
	if median < 1 {
		return nil, fmt.Errorf("workload: session median %d must be >= 1", median)
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("workload: session sigma %v must be > 0", sigma)
	}
	return &Sessions{rng: rand.New(rand.NewSource(seed)), median: float64(median), sigma: sigma}, nil
}

// Next draws one session length (requests per client, >= 1).
func (s *Sessions) Next() int {
	n := int(math.Round(s.median * math.Exp(s.rng.NormFloat64()*s.sigma)))
	if n < 1 {
		return 1
	}
	return n
}
