package explore

import (
	"fmt"
	"strings"

	"decoupling/internal/experiments"
)

// ReplayResult is one trace replay: the violations the replayed
// execution produced, whether the recorded oracle reproduced, and the
// execution's human-readable artifact (provenance audit for probe
// traces, experiment report for experiment traces).
type ReplayResult struct {
	Trace      *Trace
	Violations []Violation
	// Reproduced reports whether the trace's recorded oracle fired
	// again under replay (vacuously false when the trace records none).
	Reproduced bool
	// Artifact is the audit or experiment report of the replayed run.
	Artifact string
}

// Replay re-executes a serialized counterexample: the trace's probe or
// experiment runs once under the recorded schedules (canonical where
// the trace is silent), faults, and client count, then the oracle
// library is asserted. Output is byte-identical across parallel values.
func Replay(t *Trace, parallel int) (*ReplayResult, error) {
	if parallel < 1 {
		parallel = 1
	}
	if probe, ok := experiments.FindScenario(t.Probe); ok {
		return replayProbe(probe, t, parallel)
	}
	for _, c := range DefaultExperimentCases() {
		if c.Exp.ID == t.Probe {
			return replayExperiment(c, t)
		}
	}
	return nil, fmt.Errorf("explore: trace names no known probe or experiment %q", t.Probe)
}

func replayProbe(probe experiments.Scenario, t *Trace, parallel int) (*ReplayResult, error) {
	run, err := runCase(probe, t, parallel, true)
	if err != nil {
		if t.Oracle == OracleReproduction {
			return &ReplayResult{Trace: t, Reproduced: true,
				Violations: []Violation{{OracleReproduction, err.Error()}}}, nil
		}
		return nil, err
	}
	res := &ReplayResult{Trace: t, Violations: Check(run.lg, probe.Expected(), healthyCase(probe, t))}
	audit, err := auditBytes(run.lg, probe.Expected())
	if err != nil {
		return nil, err
	}
	res.Artifact = string(audit)
	res.Reproduced = violatesOracle(res.Violations, t.Oracle)
	return res, nil
}

func replayExperiment(ec ExperimentCase, t *Trace) (*ReplayResult, error) {
	run, err := runExperimentSeed(ec.Exp, t, true)
	if err != nil {
		if t.Oracle == OracleReproduction {
			return &ReplayResult{Trace: t, Reproduced: true,
				Violations: []Violation{{OracleReproduction, err.Error()}}}, nil
		}
		return nil, err
	}
	res := &ReplayResult{Trace: t, Artifact: run.res.Render()}
	if !run.res.Pass {
		res.Violations = append(res.Violations, Violation{OracleReproduction,
			"experiment reports FAIL under replayed schedule"})
	}
	if !ec.SkipLedgerOracles && run.res.Ledger != nil && run.res.Expected != nil {
		res.Violations = append(res.Violations, Check(run.res.Ledger, run.res.Expected, ec.Healthy)...)
	}
	res.Reproduced = violatesOracle(res.Violations, t.Oracle)
	return res, nil
}

func violatesOracle(vs []Violation, oracle string) bool {
	for _, v := range vs {
		if v.Oracle == oracle {
			return true
		}
	}
	return false
}

// Render formats a replay for the terminal: the case header, the
// violations the replay produced, the recorded-oracle verdict, and the
// execution artifact.
func (r *ReplayResult) Render() string {
	var b strings.Builder
	t := r.Trace
	fmt.Fprintf(&b, "replaying %s (seed %d)\n", t.Probe, t.Seed)
	fmt.Fprintf(&b, "clients=%d faults=%q schedule=%s\n", t.Clients, t.Faults, renderSchedules(t.Schedules))
	if len(r.Violations) == 0 {
		b.WriteString("\nno oracle violations under replay\n")
	} else {
		b.WriteString("\nviolations:\n")
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	switch {
	case t.Oracle == "":
		// Trace records no oracle; nothing to confirm.
	case t.Oracle == OracleDeterminism:
		fmt.Fprintf(&b, "recorded oracle %s: not checkable by a single replay\n", t.Oracle)
	case r.Reproduced:
		fmt.Fprintf(&b, "recorded oracle %s: REPRODUCED\n", t.Oracle)
	default:
		fmt.Fprintf(&b, "recorded oracle %s: did not reproduce\n", t.Oracle)
	}
	if r.Artifact != "" {
		b.WriteString("\n")
		b.WriteString(r.Artifact)
	}
	return b.String()
}
