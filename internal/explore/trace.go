// Package explore is a seed-driven schedule explorer: FoundationDB-style
// model checking of the repo's decoupling invariants. Each seed of a
// sweep derives (a) a scheduler permuting event delivery inside the
// simulator's causal/FIFO admissibility envelope and (b) a synthesized
// fault plan for the fault-tolerant probe scenarios, then asserts the
// invariant oracles after quiescence: paper-table tuple equality,
// fail-closed no-leak (faults may erase knowledge, never add it),
// coalition-verdict stability, ledger admission-order linearizability,
// and per-seed report/audit byte-determinism. A violating run is
// delta-debugged down to a minimal counterexample and serialized as a
// replayable Trace for `decouple replay`.
package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"decoupling/internal/faults"
	"decoupling/internal/simnet"
)

// TraceFormat identifies the replay-trace JSON schema.
const TraceFormat = "decoupling-explore-trace/v1"

// Trace is a self-contained, replayable counterexample: everything a
// later process needs to reproduce one explored execution bit-for-bit.
// Schedules holds one replay trace per simulated network the probe
// constructs (construction order); missing or short entries fall back
// to the canonical schedule, which is what makes traces shrinkable.
type Trace struct {
	Format string `json:"format"`
	// Probe is the explored scenario id (experiments.Scenarios).
	Probe string `json:"probe"`
	// Seed is the sweep seed the case was derived from (provenance; the
	// fields below are self-sufficient for replay).
	Seed uint64 `json:"seed"`
	// Clients is the probe's client/sender count.
	Clients int `json:"clients"`
	// Faults is the fault plan in faults.ParsePlan grammar ("" = none).
	Faults string `json:"faults,omitempty"`
	// Schedules are the recorded scheduling decisions per net index.
	Schedules []simnet.ScheduleTrace `json:"schedules,omitempty"`
	// Oracle names the invariant the execution violated.
	Oracle string `json:"oracle,omitempty"`
	// Detail carries the violation messages (diagnostic only).
	Detail []string `json:"detail,omitempty"`
}

// Events counts the discrete moving parts of the counterexample — the
// quantity shrinking minimizes: one per client, one per fault clause,
// one per recorded scheduling decision.
func (t *Trace) Events() int {
	n := t.Clients
	if t.Faults != "" {
		if p, err := faults.ParsePlan(t.Faults); err == nil {
			n += len(p.Faults())
		}
	}
	for _, s := range t.Schedules {
		n += len(s)
	}
	return n
}

// Plan parses the trace's fault plan (nil when empty).
func (t *Trace) Plan() (*faults.Plan, error) {
	if t.Faults == "" {
		return nil, nil
	}
	return faults.ParsePlan(t.Faults)
}

// EncodeTrace renders a trace as canonical, newline-terminated JSON:
// fixed field order (struct order), no indentation, empty fields
// omitted. Encoding is deterministic, so trace artifacts diff cleanly.
func EncodeTrace(t *Trace) ([]byte, error) {
	c := *t
	c.Format = TraceFormat
	c.Schedules = normalizeSchedules(c.Schedules)
	b, err := json.Marshal(&c)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeTrace parses and validates a replay trace.
func DecodeTrace(b []byte) (*Trace, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("explore: parsing trace: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("explore: trailing data after trace")
	}
	if t.Format != TraceFormat {
		return nil, fmt.Errorf("explore: trace format %q, want %q", t.Format, TraceFormat)
	}
	if t.Probe == "" {
		return nil, fmt.Errorf("explore: trace has no probe id")
	}
	if t.Clients < 0 {
		return nil, fmt.Errorf("explore: trace has negative client count %d", t.Clients)
	}
	if t.Faults != "" {
		if _, err := faults.ParsePlan(t.Faults); err != nil {
			return nil, fmt.Errorf("explore: trace fault plan: %w", err)
		}
	}
	t.Schedules = normalizeSchedules(t.Schedules)
	return &t, nil
}

// normalizeSchedules canonicalizes recorded schedules: trailing zero
// decisions are trimmed from each per-net trace (an exhausted replay
// picks canonical 0, so they are semantically redundant), empty traces
// map to nil, and trailing empty per-net entries are dropped — so an
// empty trace and an absent trace both mean "canonical schedule" and
// encode(decode(x)) is a fixpoint. Recording a replayed run yields the
// same canonical form, which is what makes determinism comparisons and
// shrink-by-truncation sound.
func normalizeSchedules(ss []simnet.ScheduleTrace) []simnet.ScheduleTrace {
	out := make([]simnet.ScheduleTrace, len(ss))
	for i, s := range ss {
		for len(s) > 0 && s[len(s)-1] == 0 {
			s = s[:len(s)-1]
		}
		if len(s) > 0 {
			out[i] = append(simnet.ScheduleTrace(nil), s...)
		}
	}
	for len(out) > 0 && out[len(out)-1] == nil {
		out = out[:len(out)-1]
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
