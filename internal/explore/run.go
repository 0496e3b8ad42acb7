package explore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"decoupling/internal/core"
	"decoupling/internal/experiments"
	"decoupling/internal/ledger"
	"decoupling/internal/provenance"
	"decoupling/internal/simnet"
)

// Case is one subject of a sweep: a probe, a fault-tolerant scenario
// whose client count and fault plan are synthesized per seed, or an
// experiment, whose schedule alone is explored. A case supplies how to
// build its trace for a seed and how to run a trace; recording and
// replaying schedules, the oracles, the determinism replay, shrinking
// and Replay are one path for both kinds.
type Case struct {
	Kind string // "probe" or "experiment"
	ID   string
	// Planted marks the deliberately misconfigured probe: violations
	// there are the explorer finding its target, not bugs.
	Planted bool
	// clients is the canonical client count, the one the
	// tuple-equality oracle assumes (0 for an experiment, which
	// synthesizes none).
	clients int
	synth   func(seed uint64) *Trace
	// run executes a trace on ctx; execute hooks every net ctx builds
	// to record or replay its schedule.
	run func(ctx experiments.Ctx, t *Trace, parallel int) (*caseRun, error)
}

// Cases lists every probe (experiments.Scenarios), then every
// experiment (experiments.All).
func Cases() []Case {
	var out []Case
	for _, s := range experiments.Scenarios() {
		out = append(out, probeCase(s))
	}
	for _, e := range experiments.All() {
		out = append(out, experimentCase(e))
	}
	return out
}

// probeCase explores a scenario under synthesized clients, faults and
// schedules. Its report is the run's provenance audit.
func probeCase(s experiments.Scenario) Case {
	return Case{
		Kind: "probe", ID: s.ID, Planted: !s.FailClosed, clients: canonicalClients(s),
		synth: func(seed uint64) *Trace { return synthCase(s, seed) },
		run: func(ctx experiments.Ctx, t *Trace, parallel int) (*caseRun, error) {
			plan, err := t.Plan()
			if err != nil {
				return nil, fmt.Errorf("case fault plan: %w", err)
			}
			// A plan that silences every sender is a legitimate case:
			// silence leaks nothing, so the oracles still run on the
			// (quiet) ledger.
			lg, err := s.RunFaults(ctx, parallel, t.Clients, plan)
			if err != nil && !errors.Is(err, experiments.ErrNothingDelivered) {
				return nil, err
			}
			expected := s.Expected()
			audit, err := auditBytes(lg, expected)
			if err != nil {
				return nil, err
			}
			return &caseRun{lg: lg, expected: expected, report: string(audit)}, nil
		},
	}
}

// experimentCase explores an experiment's schedule. Its report is the
// rendered experiment report; the ledger oracles and the audit
// comparison read the retained ledger, with two exemptions.
func experimentCase(e experiments.Experiment) Case {
	// E16 retains the fail-open counterexample ledger, whose COUPLED
	// verdict is the experiment's point, not a bug. The probe
	// "odoh-failopen" covers that surface for the explorer.
	checkLedger := e.ID != "E16"
	// E6 and E8 run on kernel loopback sockets, so their linkage-handle
	// aliases carry run-dependent ephemeral ports. Their reports and
	// schedules must still replay byte for byte.
	compareAudit := e.ID != "E6" && e.ID != "E8"
	return Case{
		Kind: "experiment", ID: e.ID,
		synth: func(seed uint64) *Trace { return &Trace{Format: TraceFormat, Probe: e.ID, Seed: seed} },
		run: func(ctx experiments.Ctx, _ *Trace, _ int) (*caseRun, error) {
			res, err := e.Run(ctx)
			if err != nil {
				return nil, err
			}
			out := &caseRun{failed: !res.Pass, report: res.Render()}
			if checkLedger && res.Ledger != nil && res.Expected != nil {
				out.lg, out.expected = res.Ledger, res.Expected
				if compareAudit {
					audit, err := auditBytes(res.Ledger, res.Expected)
					if err != nil {
						return nil, err
					}
					out.audit = string(audit)
				}
			}
			return out, nil
		},
	}
}

// caseRun is one execution of a case: what its oracles read, plus the
// scheduling decisions every constructed net recorded.
type caseRun struct {
	// lg and expected feed the ledger oracles; lg is nil where the
	// case exempts its ledger.
	lg       *ledger.Ledger
	expected *core.System
	// failed reports that an experiment's own PASS criterion failed.
	failed bool
	// report is what a replay prints and the determinism oracle
	// compares. audit is the provenance audit that oracle also compares:
	// "" for a probe, whose report is already its audit, and for an
	// exempt experiment.
	report, audit string
	schedules     []simnet.ScheduleTrace // canonicalized, per net index
	decisions     int                    // total multi-choice decision points
}

// netRecorder keeps every net a run constructs, indexed by
// construction order, so recorded schedules can be harvested after
// quiescence.
type netRecorder struct {
	mu   sync.Mutex
	nets []*simnet.Network
}

func (r *netRecorder) add(idx int, n *simnet.Network) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.nets) <= idx {
		r.nets = append(r.nets, nil)
	}
	r.nets[idx] = n
}

// harvest returns the canonicalized recorded schedule per net and the
// total decision count.
func (r *netRecorder) harvest() ([]simnet.ScheduleTrace, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	raw := make([]simnet.ScheduleTrace, len(r.nets))
	decisions := 0
	for i, n := range r.nets {
		if n == nil {
			continue
		}
		raw[i] = n.RecordedSchedule()
		decisions += len(raw[i])
	}
	return normalizeSchedules(raw), decisions
}

// execute runs one trace of c and harvests its schedules. In record
// mode (replay=false) each net gets a seeded scheduler derived from
// (t.Seed, net index); in replay mode net i replays t.Schedules[i]
// (canonical when absent, which is what makes shrunk traces runnable).
// A panic becomes an error, so one pathological case cannot kill a
// sweep.
func execute(c Case, t *Trace, parallel int, replay bool) (run *caseRun, err error) {
	rec := &netRecorder{}
	ctx := experiments.WithNetHook(nil, func(idx int, n *simnet.Network) {
		rec.add(idx, n)
		if replay {
			var tr simnet.ScheduleTrace
			if idx < len(t.Schedules) {
				tr = t.Schedules[idx]
			}
			n.ReplaySchedule(tr)
		} else {
			n.SetScheduler(simnet.NewSeededScheduler(schedSeed(t.Seed, idx)))
		}
	})
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s %s panicked: %v", c.Kind, c.ID, p)
		}
	}()
	if run, err = c.run(ctx, t, parallel); err != nil {
		return nil, err
	}
	run.schedules, run.decisions = rec.harvest()
	return run, nil
}

// oracles applies the single-run oracles to one execution: the
// experiment's own PASS criterion, then the ledger oracles, with tuple
// equality only for a healthy trace (no faults, canonical client
// count).
func oracles(c Case, t *Trace, run *caseRun) []Violation {
	var vs []Violation
	if run.failed {
		vs = append(vs, Violation{OracleReproduction, "experiment reports FAIL under explored schedule"})
	}
	if run.lg != nil {
		vs = append(vs, Check(run.lg, run.expected, t.Faults == "" && t.Clients == c.clients)...)
	}
	return vs
}

// check records one trace of c, applies the single-run oracles, and
// replays the recorded schedules: the replay must re-record them and
// reproduce the report and audit byte for byte. The trace keeps the
// recorded schedules and the first violated oracle.
func check(c Case, t *Trace) ([]Violation, *caseRun) {
	run, err := execute(c, t, 1, false)
	if err != nil {
		vs := []Violation{{OracleReproduction, err.Error()}}
		stampTrace(t, vs)
		return vs, nil
	}
	vs := oracles(c, t, run)
	replayT := *t
	replayT.Schedules = run.schedules
	rerun, err := execute(c, &replayT, 1, true)
	switch {
	case err != nil:
		vs = append(vs, Violation{OracleDeterminism, "replaying recorded case: " + err.Error()})
	case !equalSchedules(rerun.schedules, run.schedules):
		vs = append(vs, Violation{OracleDeterminism, fmt.Sprintf(
			"replay re-recorded a different schedule: %v, recorded %v", rerun.schedules, run.schedules)})
	case rerun.report != run.report:
		vs = append(vs, Violation{OracleDeterminism, "replayed report differs from recorded report"})
	case rerun.audit != run.audit:
		vs = append(vs, Violation{OracleDeterminism, "replayed audit differs from recorded audit"})
	}
	t.Schedules = run.schedules
	stampTrace(t, vs)
	return vs, run
}

// canonicalClients is the probe's paper-table client count — the count
// the tuple-equality oracle assumes.
func canonicalClients(probe experiments.Scenario) int {
	if probe.MaxClients < 1 {
		return 1
	}
	return probe.MaxClients
}

// auditBytes renders the provenance audit of a quiesced ledger.
func auditBytes(lg *ledger.Ledger, expected *core.System) ([]byte, error) {
	a, err := provenance.Derive(lg, expected)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := provenance.WriteReport(&buf, a); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// equalSchedules compares canonicalized schedule sets.
func equalSchedules(a, b []simnet.ScheduleTrace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
