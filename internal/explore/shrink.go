package explore

import (
	"strings"

	"decoupling/internal/simnet"
)

// Shrinking: delta-debug a violating case down to a locally-minimal
// counterexample that still violates the SAME oracle. The reduction
// passes, in order:
//
//  1. clients — try 1, then half, then one fewer;
//  2. fault clauses — try dropping each spec clause;
//  3. schedules — try dropping a whole net's trace, truncating it to
//     its first half, or zeroing one decision back to canonical.
//
// Every accepted candidate strictly decreases (events, nonzero
// scheduling decisions) lexicographically, so the loop terminates; the
// passes repeat until a full sweep accepts nothing. Candidate order is
// fixed, so shrinking is deterministic: the same violating case always
// minimizes to the same trace.

// shrinkRunner executes a candidate in replay mode and returns the
// violations it produces (the caseRun is reused to re-record the final
// minimized schedule).
type shrinkRunner func(cand *Trace) (*caseRun, []Violation, error)

// nonzeroDecisions counts scheduling decisions that divert from the
// canonical order — the secondary minimization metric.
func nonzeroDecisions(t *Trace) int {
	n := 0
	for _, s := range t.Schedules {
		for _, pick := range s {
			if pick != 0 {
				n++
			}
		}
	}
	return n
}

// reproduces reports whether cand still violates oracle under run.
func reproduces(run shrinkRunner, cand *Trace, oracle string) bool {
	_, vs, err := run(cand)
	if err != nil {
		return oracle == OracleReproduction
	}
	return violatesOracle(vs, oracle)
}

// shrinkWith minimizes t against run, preserving t.Oracle. t is not
// mutated; the returned trace carries the re-recorded canonical
// schedule and refreshed violation detail.
func shrinkWith(run shrinkRunner, t *Trace) *Trace {
	cur := cloneTrace(t)
	better := func(cand *Trace) bool {
		ce, ne := cand.Events(), cur.Events()
		if ce != ne {
			return ce < ne
		}
		return nonzeroDecisions(cand) < nonzeroDecisions(cur)
	}
	try := func(cand *Trace) bool {
		cand.Schedules = normalizeSchedules(cand.Schedules)
		if !better(cand) || !reproduces(run, cand, cur.Oracle) {
			return false
		}
		cur = cand
		return true
	}

	for improved := true; improved; {
		improved = false

		// Pass 1: client count.
		for _, c := range []int{1, cur.Clients / 2, cur.Clients - 1} {
			if c < 1 || c >= cur.Clients {
				continue
			}
			cand := cloneTrace(cur)
			cand.Clients = c
			if try(cand) {
				improved = true
				break
			}
		}

		// Pass 2: drop fault clauses.
		if clauses := splitClauses(cur.Faults); len(clauses) > 0 {
			for i := range clauses {
				cand := cloneTrace(cur)
				cand.Faults = joinClauses(clauses, i)
				if try(cand) {
					improved = true
					break
				}
			}
		}

		// Pass 3: schedules — drop a net, truncate to half, or zero one
		// divergent decision.
		for i := range cur.Schedules {
			s := cur.Schedules[i]
			if len(s) == 0 {
				continue
			}
			cand := cloneTrace(cur)
			cand.Schedules[i] = nil
			if try(cand) {
				improved = true
				break
			}
			cand = cloneTrace(cur)
			cand.Schedules[i] = s[:len(s)/2]
			if try(cand) {
				improved = true
				break
			}
			for j, pick := range s {
				if pick == 0 {
					continue
				}
				cand = cloneTrace(cur)
				cand.Schedules[i][j] = 0
				if try(cand) {
					improved = true
					break
				}
			}
			if improved {
				break
			}
		}
	}

	// Re-record the minimized case so the trace carries the canonical
	// replay script and the surviving violation detail.
	if rec, vs, err := run(cur); err == nil {
		cur.Schedules = rec.schedules
		cur.Detail = nil
		for _, v := range vs {
			if v.Oracle == cur.Oracle {
				cur.Detail = append(cur.Detail, v.Detail)
			}
		}
	}
	return cur
}

// cloneTrace deep-copies a trace (schedules included, so candidates
// can be mutated in place).
func cloneTrace(t *Trace) *Trace {
	c := *t
	c.Schedules = make([]simnet.ScheduleTrace, len(t.Schedules))
	for i, s := range t.Schedules {
		c.Schedules[i] = append(simnet.ScheduleTrace(nil), s...)
	}
	c.Detail = append([]string(nil), t.Detail...)
	return &c
}

// splitClauses splits a fault spec into clauses ("" -> none).
func splitClauses(spec string) []string {
	if spec == "" {
		return nil
	}
	return strings.Split(spec, ";")
}

// joinClauses rebuilds a spec with clause drop removed.
func joinClauses(clauses []string, drop int) string {
	out := make([]string, 0, len(clauses)-1)
	for i, c := range clauses {
		if i != drop {
			out = append(out, c)
		}
	}
	return strings.Join(out, ";")
}
