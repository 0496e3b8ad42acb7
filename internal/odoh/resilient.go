// ResilientClient: the ODoH client wrapped in the shared resilience
// layer — failover across a set of oblivious proxies and an explicit
// degradation policy.
//
// Degradation policy: FAIL-CLOSED by default. Every proxy in Forwards
// is a decoupled path (each sees identity but only ciphertext); when
// all of them are exhausted the query errors with
// resilience.ErrExhausted. The client never contacts a resolver
// directly — that path would re-couple who-is-asking with what-is-asked
// and silently demote the system from the paper's §3.2.2 verdict to a
// coupled one. The Fallback hook exists solely so experiment E16 can
// construct that misconfiguration and prove the ledger audit catches
// it.
package odoh

import (
	"hash/fnv"

	"decoupling/internal/dnswire"
	"decoupling/internal/resilience"
	"decoupling/internal/telemetry"
)

// FallbackFunc resolves a query outside the oblivious path. Any use of
// it re-couples identity with data; see package comment.
type FallbackFunc func(name string, qtype dnswire.Type) (*dnswire.Message, error)

// ResilientClient drives an odoh.Client through the resilience layer.
type ResilientClient struct {
	Client *Client
	// Policy declares the retry/backoff/degradation behavior; zero
	// value is no retries, fail-closed. Use resilience.Default("odoh").
	Policy resilience.Policy
	// Forwards are the decoupled paths, tried in failover rotation.
	Forwards []ForwardFunc
	// Fallback is the deliberate misconfiguration hook: only consulted
	// when Policy.Mode is resilience.FailOpen and every decoupled path
	// is exhausted. Leave nil.
	Fallback FallbackFunc
	// Sleep, when set, realizes backoff waits (nil: backoff is logical).
	Sleep resilience.Sleeper

	tel *telemetry.Telemetry
}

// Instrument attaches a telemetry sink for retry/failover counters.
func (rc *ResilientClient) Instrument(tel *telemetry.Telemetry) { rc.tel = tel }

// Query resolves (name, qtype) through the proxy set under the policy.
// Transport failures rotate to the next proxy.
func (rc *ResilientClient) Query(name string, qtype dnswire.Type) (*dnswire.Message, error) {
	// Jitter seed: a stable hash of the query identity, so backoff
	// schedules are deterministic per query and uncorrelated across
	// queries.
	h := fnv.New64a()
	h.Write([]byte(rc.Client.ID))
	h.Write([]byte{0})
	h.Write([]byte(name))
	seed := h.Sum64()

	var resp *dnswire.Message
	_, err := resilience.DoFailover(rc.Policy, rc.tel, seed, rc.Sleep, len(rc.Forwards),
		func(attempt, endpoint int) error {
			r, qerr := rc.Client.Query(name, qtype, rc.Forwards[endpoint])
			if qerr != nil {
				return qerr
			}
			resp = r
			return nil
		})
	if err != nil {
		if rc.Policy.Mode == resilience.FailOpen && rc.Fallback != nil {
			// The counterexample path: availability bought by re-coupling.
			return rc.Fallback(name, qtype)
		}
		return nil, err
	}
	return resp, nil
}
