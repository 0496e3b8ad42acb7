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

// caseRun is one execution of an explored case: the quiesced ledger
// plus the scheduling decisions every constructed net recorded.
type caseRun struct {
	lg        *ledger.Ledger
	schedules []simnet.ScheduleTrace // canonicalized, per net index
	decisions int                    // total multi-choice decision points
}

// netRecorder is the Ctx hook state shared by record and replay runs:
// it keeps every constructed net, indexed by construction order, so
// recorded schedules can be harvested after quiescence.
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

// exploreCtx builds the experiment Ctx for one case execution. In
// record mode (replay=false) each net gets a seeded scheduler derived
// from (t.Seed, net index); in replay mode net i replays t.Schedules[i]
// (canonical when absent — which is what makes shrunk traces runnable).
func exploreCtx(t *Trace, replay bool) (experiments.Ctx, *netRecorder) {
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
	return ctx, rec
}

// runCase executes a probe case and harvests its schedules. Panics in
// probe code are converted to errors so one pathological case cannot
// kill a sweep.
func runCase(probe experiments.Scenario, t *Trace, parallel int, replay bool) (run *caseRun, err error) {
	plan, err := t.Plan()
	if err != nil {
		return nil, fmt.Errorf("case fault plan: %w", err)
	}
	ctx, rec := exploreCtx(t, replay)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("probe %s panicked: %v", probe.ID, p)
		}
	}()
	// A plan that silences every sender is a legitimate case: silence
	// leaks nothing, so the oracles still run on the (quiet) ledger.
	lg, err := probe.RunFaults(ctx, parallel, t.Clients, plan)
	if err != nil && !errors.Is(err, experiments.ErrNothingDelivered) {
		return nil, err
	}
	schedules, decisions := rec.harvest()
	return &caseRun{lg: lg, schedules: schedules, decisions: decisions}, nil
}

// canonicalClients is the probe's paper-table client count — the count
// the tuple-equality oracle assumes.
func canonicalClients(probe experiments.Scenario) int {
	if probe.MaxClients < 1 {
		return 1
	}
	return probe.MaxClients
}

// healthyCase reports whether a case may assert tuple EQUALITY against
// the paper (no faults, canonical client count); every other case gets
// only the subsumption oracles.
func healthyCase(probe experiments.Scenario, t *Trace) bool {
	return t.Faults == "" && t.Clients == canonicalClients(probe)
}

// auditBytes renders the provenance audit of a quiesced ledger — the
// byte surface the determinism oracle compares across record and
// replay runs.
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

// checkDeterminism replays a recorded case and asserts the replay is a
// fixpoint: identical re-recorded schedules and identical provenance
// audit bytes. Any divergence is an OracleDeterminism violation.
func checkDeterminism(probe experiments.Scenario, t *Trace, parallel int, rec *caseRun) []Violation {
	replayT := *t
	replayT.Schedules = rec.schedules
	rerun, err := runCase(probe, &replayT, parallel, true)
	if err != nil {
		return []Violation{{OracleDeterminism, "replaying recorded case: " + err.Error()}}
	}
	if !equalSchedules(rerun.schedules, rec.schedules) {
		return []Violation{{OracleDeterminism, fmt.Sprintf(
			"replay re-recorded a different schedule: %v, recorded %v", rerun.schedules, rec.schedules)}}
	}
	want, err := auditBytes(rec.lg, probe.Expected())
	if err != nil {
		return []Violation{{OracleDeterminism, "deriving recorded audit: " + err.Error()}}
	}
	got, err := auditBytes(rerun.lg, probe.Expected())
	if err != nil {
		return []Violation{{OracleDeterminism, "deriving replayed audit: " + err.Error()}}
	}
	if !bytes.Equal(want, got) {
		return []Violation{{OracleDeterminism, "replayed audit differs from recorded audit"}}
	}
	return nil
}
