// Package workload generates the synthetic user behaviour the
// experiments drive their systems with: Zipf-popular web browsing
// (query/name streams), bounded telemetry values, and communication
// patterns. Centralizing it keeps experiment parameters honest — every
// experiment that needs "realistic browsing" uses the same
// distribution, seeded and deterministic.
//
// Real traces are the substitution documented in DESIGN.md: the paper's
// systems are evaluated against production traffic this module cannot
// ship, so experiments use seeded synthetic equivalents whose shape
// (heavy-tailed popularity, per-user affinity) matches what the
// respective system papers report.
package workload

import (
	"fmt"
	"math/rand"
)

// Browsing generates per-user streams of queried names: global
// popularity is Zipf-distributed and each user has an affinity offset,
// so users revisit their own heavy hitters (which is what makes
// per-resolver profiles identifying in the first place).
type Browsing struct {
	Names []string
	rng   *rand.Rand
	zipf  *rand.Zipf
}

// NewBrowsing creates a browsing workload over nameCount names with
// Zipf skew s (>1; ~1.2 is web-like). Deterministic per seed.
func NewBrowsing(seed int64, nameCount int, s float64) (*Browsing, error) {
	if nameCount <= 0 {
		return nil, fmt.Errorf("workload: nameCount %d", nameCount)
	}
	if s <= 1 {
		return nil, fmt.Errorf("workload: zipf skew %v must be > 1", s)
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, nameCount)
	for i := range names {
		names[i] = fmt.Sprintf("site%03d.test", i)
	}
	return &Browsing{
		Names: names,
		rng:   rng,
		zipf:  rand.NewZipf(rng, s, 1, uint64(nameCount-1)),
	}, nil
}

// Next returns the next name user visits: rank drawn from the Zipf
// popularity law, rotated by a per-user affinity offset so different
// users have different heavy hitters.
func (b *Browsing) Next(user int) string {
	rank := int(b.zipf.Uint64())
	return b.Names[(rank+user*7)%len(b.Names)]
}

// Stream returns n visits for user.
func (b *Browsing) Stream(user, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = b.Next(user)
	}
	return out
}

// Telemetry generates bounded integer measurements (crash counts,
// latencies bucketed, etc.) with a right-skewed distribution, for the
// PPM experiments.
type Telemetry struct {
	rng *rand.Rand
	max uint64
}

// NewTelemetry creates a telemetry workload with values in [0, max].
func NewTelemetry(seed int64, max uint64) *Telemetry {
	return &Telemetry{rng: rand.New(rand.NewSource(seed)), max: max}
}

// Next draws one measurement: squaring a uniform variate concentrates
// mass near zero (most devices report few events).
func (t *Telemetry) Next() uint64 {
	f := t.rng.Float64()
	return uint64(f * f * float64(t.max+1) * 0.999)
}
