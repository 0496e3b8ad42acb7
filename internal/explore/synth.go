package explore

import (
	"strings"
	"time"

	"decoupling/internal/experiments"
	"decoupling/internal/telemetry"
)

// Fault synthesis: derive a random-but-valid fault plan from a sweep
// seed. All randomness flows through splitmix64 on the seed, so a
// (probe, seed) pair always synthesizes the same case.
//
// Synthesized windows are aligned to the scenarios' 10ms logical hop
// clock (internal/experiments.scenarioHopDelay): client i's attempt j
// is gated at t=(i+j)*10ms, so a window that isn't a multiple of 10ms
// wide can never change an outcome. Crash windows are generated by
// walking time forward per node, which makes overlap impossible by
// construction — faults.ParsePlan would reject it, and every synthesized
// plan must survive its own Spec round-trip.

// rng is a tiny deterministic stream over splitmix64.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng { return &rng{state: telemetry.Mix64(seed ^ 0xEC5B)} }

func (r *rng) next() uint64 {
	r.state = telemetry.Mix64(r.state)
	return r.state
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// synthCase derives the explored case for (probe, seed): a client
// count, a fault plan over the probe's fault nodes, and the scheduler
// seed for any simulated networks the probe builds.
func synthCase(probe experiments.Scenario, seed uint64) *Trace {
	r := newRng(seed ^ telemetry.Mix64(uint64(len(probe.ID))^hashID(probe.ID)))
	t := &Trace{
		Format:  TraceFormat,
		Probe:   probe.ID,
		Seed:    seed,
		Clients: 1 + r.intn(canonicalClients(probe)),
	}

	step := 10 * time.Millisecond
	var clauses []string
	for _, node := range probe.FaultNodes {
		// Walk time forward per node: 0-2 crash windows, never
		// overlapping, occasionally open-ended.
		cursor := time.Duration(r.intn(4)) * step
		for k := r.intn(3); k > 0; k-- {
			from := cursor + time.Duration(r.intn(3))*step
			if r.intn(4) == 0 {
				clauses = append(clauses, "crash:"+string(node)+"@"+from.String()+"-")
				break // an open window swallows the rest of this node's time
			}
			until := from + time.Duration(1+r.intn(6))*step
			clauses = append(clauses, "crash:"+string(node)+"@"+from.String()+"-"+until.String())
			cursor = until
		}
		// Maybe a one-way partition into the node for a window.
		if r.intn(3) == 0 {
			from := time.Duration(r.intn(8)) * step
			until := from + time.Duration(1+r.intn(8))*step
			clauses = append(clauses, "partition:*>"+string(node)+"@"+from.String()+"-"+until.String())
		}
		// Maybe burst loss into the node.
		if r.intn(4) == 0 {
			from := time.Duration(r.intn(8)) * step
			probs := []string{"0.25", "0.5", "0.75", "1"}
			clauses = append(clauses, "loss:*>"+string(node)+":"+probs[r.intn(len(probs))]+"@"+from.String()+"-")
		}
	}
	t.Faults = strings.Join(clauses, ";")
	return t
}

// hashID folds a probe id into the rng seed.
func hashID(id string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return h
}

// schedSeed derives the scheduler seed for net-construction index idx
// of the case derived from seed. Separate from the synthesis stream so
// adding a clause kind never perturbs schedules.
func schedSeed(seed uint64, idx int) uint64 {
	return telemetry.Mix64(telemetry.Mix64(seed^0x5CED) + uint64(idx))
}
