package explore

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"decoupling/internal/experiments"
	"decoupling/internal/simnet"
	"decoupling/internal/telemetry"
)

// ExperimentCase wraps a registered experiment for the sweep with the
// oracle configuration its retained ledger supports.
type ExperimentCase struct {
	Exp experiments.Experiment
	// Healthy asserts paper-table tuple EQUALITY on the retained
	// ledger. False for the chaos experiments, whose internal fault
	// injection legitimately erases knowledge (subsumption oracles
	// still apply).
	Healthy bool
	// SkipLedgerOracles exempts the retained ledger entirely: E16
	// retains the fail-open counterexample ledger, whose COUPLED
	// verdict is the experiment's point, not a bug. The probe
	// "odoh-failopen" covers that surface for the explorer.
	SkipLedgerOracles bool
	// SkipAuditDeterminism exempts the audit-byte comparison only: the
	// real-loopback experiments (E6, E8) observe kernel-assigned
	// ephemeral ports, so their linkage-handle aliases are
	// run-dependent. Their rendered reports and schedules must still
	// replay byte-for-byte.
	SkipAuditDeterminism bool
}

// DefaultExperimentCases wraps every registered experiment with its
// sweep configuration.
func DefaultExperimentCases() []ExperimentCase {
	var out []ExperimentCase
	for _, e := range experiments.All() {
		c := ExperimentCase{Exp: e, Healthy: true}
		switch e.ID {
		case "E6", "E8":
			c.SkipAuditDeterminism = true
		case "E14", "E15":
			c.Healthy = false
		case "E16":
			c.Healthy = false
			c.SkipLedgerOracles = true
		}
		out = append(out, c)
	}
	return out
}

// Options configures a sweep.
type Options struct {
	// Seeds is the sweep's seed list (SeedList builds the standard
	// contiguous one). Required.
	Seeds []uint64
	// Probes are the fault-tolerant scenarios explored with synthesized
	// faults AND permuted schedules.
	Probes []experiments.Scenario
	// Experiments are explored with permuted schedules only.
	Experiments []ExperimentCase
	// Workers sizes the case worker pool (default GOMAXPROCS).
	Workers int
	// Parallel is the client-goroutine fan-out inside each probe run
	// (results are byte-identical across values; default 1).
	Parallel int
	// Tel receives the sweep counters (cases, decision points,
	// violations, shrink runs); nil disables them. The report bytes do
	// not depend on it.
	Tel *telemetry.Telemetry
}

// SeedList returns the standard contiguous seed list [base, base+n).
func SeedList(base uint64, n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, base+uint64(i))
	}
	return out
}

// Summary is one probe's or experiment's sweep outcome.
type Summary struct {
	Kind  string // "probe" or "experiment"
	ID    string
	Cases int
	// ViolSeeds lists the seeds whose case violated any oracle.
	ViolSeeds []uint64
	// Planted marks the deliberately misconfigured probe: violations
	// there are the explorer finding its target, not bugs.
	Planted bool
	// ScheduleIndependent marks an experiment whose canonical run hit
	// zero decision points — every admissible schedule is the canonical
	// one, so a single seed covers the space.
	ScheduleIndependent bool
}

// Finding is one violating case, minimized where the violation is
// replayable (everything except determinism violations, which cannot
// be validated by replay).
type Finding struct {
	Kind           string
	ID             string
	Seed           uint64
	Planted        bool
	Violations     []Violation
	Trace          *Trace
	OriginalEvents int
}

// Report is a completed sweep. Render is byte-deterministic for a
// fixed Options (independent of Workers and wall time).
type Report struct {
	Seeds     []uint64
	Decisions int
	Summaries []Summary
	Findings  []Finding
}

// Sweep explores every (probe x seed) and (experiment x seed) case and
// minimizes the first violating case per probe/experiment.
func Sweep(o Options) *Report {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	r := &Report{Seeds: o.Seeds}

	type probeCase struct {
		vs        []Violation
		trace     *Trace
		decisions int
	}
	probeResults := make([][]probeCase, len(o.Probes))
	for i := range probeResults {
		probeResults[i] = make([]probeCase, len(o.Seeds))
	}
	expOut := make([]expSweep, len(o.Experiments))

	// Work items: one per (probe, seed) pair; one per experiment (the
	// seed loop is sequential inside so the schedule-independence
	// short-circuit can stop it).
	type work func()
	var queue []work
	for pi, probe := range o.Probes {
		for si, seed := range o.Seeds {
			pi, si, probe, seed := pi, si, probe, seed
			queue = append(queue, func() {
				t := synthCase(probe, seed)
				vs, run := checkProbeCase(probe, t, o.Parallel)
				pc := probeCase{vs: vs, trace: t}
				if run != nil {
					pc.decisions = run.decisions
					t.Schedules = run.schedules
				}
				probeResults[pi][si] = pc
			})
		}
	}
	for ei, ec := range o.Experiments {
		ei, ec := ei, ec
		queue = append(queue, func() {
			expOut[ei] = sweepExperiment(ec, o.Seeds)
		})
	}

	var wg sync.WaitGroup
	next := make(chan work)
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fn := range next {
				fn()
			}
		}()
	}
	for _, fn := range queue {
		next <- fn
	}
	close(next)
	wg.Wait()

	// Fold probe results in (probe, seed) order.
	shrinkRuns := 0
	for pi, probe := range o.Probes {
		s := Summary{Kind: "probe", ID: probe.ID, Cases: len(o.Seeds), Planted: !probe.FailClosed}
		var first *Finding
		for si, seed := range o.Seeds {
			pc := probeResults[pi][si]
			r.Decisions += pc.decisions
			if len(pc.vs) == 0 {
				continue
			}
			s.ViolSeeds = append(s.ViolSeeds, seed)
			if first == nil {
				first = &Finding{Kind: "probe", ID: probe.ID, Seed: seed,
					Planted: !probe.FailClosed, Violations: pc.vs, Trace: pc.trace,
					OriginalEvents: pc.trace.Events()}
			}
		}
		if first != nil {
			shrinkRuns += minimizeProbeFinding(probe, first, o.Parallel)
			r.Findings = append(r.Findings, *first)
		}
		r.Summaries = append(r.Summaries, s)
	}
	for ei, ec := range o.Experiments {
		out := expOut[ei]
		s := Summary{Kind: "experiment", ID: ec.Exp.ID, Cases: out.cases,
			ViolSeeds: out.violSeeds, ScheduleIndependent: out.scheduleIndependent}
		r.Decisions += out.decisions
		if out.first != nil {
			shrinkRuns += minimizeExperimentFinding(ec, out.first)
			r.Findings = append(r.Findings, *out.first)
		}
		r.Summaries = append(r.Summaries, s)
	}
	sort.SliceStable(r.Findings, func(i, j int) bool {
		if r.Findings[i].Kind != r.Findings[j].Kind {
			return r.Findings[i].Kind > r.Findings[j].Kind // probes first
		}
		return r.Findings[i].ID < r.Findings[j].ID
	})

	for _, s := range r.Summaries {
		kind, id := telemetry.A("kind", s.Kind), telemetry.A("id", s.ID)
		o.Tel.Count(telemetry.MetricExploreCases,
			"Explored cases per probe/experiment.", uint64(s.Cases), kind, id)
		if len(s.ViolSeeds) > 0 {
			o.Tel.Count(telemetry.MetricExploreViolations,
				"Cases violating any invariant oracle.", uint64(len(s.ViolSeeds)), kind, id)
		}
	}
	o.Tel.Count(telemetry.MetricExploreDecisions,
		"Schedule decision points explored across the sweep.", uint64(r.Decisions))
	if shrinkRuns > 0 {
		o.Tel.Count(telemetry.MetricExploreShrinkRuns,
			"Candidate executions spent minimizing counterexamples.", uint64(shrinkRuns))
	}
	return r
}

// checkProbeCase records one probe case, runs the oracle library, and
// appends the determinism check. The trace's Oracle/Detail fields are
// stamped from the first violation.
func checkProbeCase(probe experiments.Scenario, t *Trace, parallel int) ([]Violation, *caseRun) {
	run, err := runCase(probe, t, parallel, false)
	if err != nil {
		vs := []Violation{{OracleReproduction, err.Error()}}
		stampTrace(t, vs)
		return vs, nil
	}
	vs := Check(run.lg, probe.Expected(), healthyCase(probe, t))
	vs = append(vs, checkDeterminism(probe, t, parallel, run)...)
	stampTrace(t, vs)
	return vs, run
}

// stampTrace records the first violated oracle (and its detail lines)
// on the trace, so shrinking holds the counterexample to that oracle.
func stampTrace(t *Trace, vs []Violation) {
	if len(vs) == 0 {
		return
	}
	t.Oracle = vs[0].Oracle
	for _, v := range vs {
		if v.Oracle == t.Oracle {
			t.Detail = append(t.Detail, v.Detail)
		}
	}
}

// minimizeProbeFinding shrinks a probe finding in place (determinism
// violations are reported unshrunk — a nondeterministic case cannot be
// validated by replay). It returns the number of candidate executions
// the shrink spent.
func minimizeProbeFinding(probe experiments.Scenario, f *Finding, parallel int) int {
	if f.Trace.Oracle == OracleDeterminism {
		return 0
	}
	runs := 0
	runner := func(cand *Trace) (*caseRun, []Violation, error) {
		runs++
		run, err := runCase(probe, cand, parallel, true)
		if err != nil {
			return nil, nil, err
		}
		return run, Check(run.lg, probe.Expected(), healthyCase(probe, cand)), nil
	}
	f.Trace = shrinkWith(runner, f.Trace)
	return runs
}

// expSweep is one experiment's fold across the seed list.
type expSweep struct {
	cases               int
	decisions           int
	violSeeds           []uint64
	first               *Finding
	scheduleIndependent bool
}

// expRun is one experiment execution under a hooked Ctx.
type expRun struct {
	res       *experiments.Result
	schedules []simnet.ScheduleTrace
	decisions int
}

// runExperimentSeed executes an experiment with either a seeded
// scheduler (record mode) or a replayed schedule per net.
func runExperimentSeed(exp experiments.Experiment, t *Trace, replay bool) (run *expRun, err error) {
	ctx, rec := exploreCtx(t, replay)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s panicked: %v", exp.ID, p)
		}
	}()
	res, err := exp.Run(ctx)
	if err != nil {
		return nil, err
	}
	schedules, decisions := rec.harvest()
	return &expRun{res: res, schedules: schedules, decisions: decisions}, nil
}

// checkExperimentCase runs one (experiment, seed) case and its oracle
// library: reproduction (no error, PASS holds), the ledger oracles the
// case's configuration admits, and determinism (replaying the recorded
// schedules reproduces the report and audit byte-for-byte).
func checkExperimentCase(ec ExperimentCase, t *Trace) ([]Violation, *expRun) {
	run, err := runExperimentSeed(ec.Exp, t, false)
	if err != nil {
		vs := []Violation{{OracleReproduction, err.Error()}}
		stampTrace(t, vs)
		return vs, nil
	}
	var vs []Violation
	if !run.res.Pass {
		vs = append(vs, Violation{OracleReproduction,
			"experiment reports FAIL under explored schedule"})
	}
	checkLedger := !ec.SkipLedgerOracles && run.res.Ledger != nil && run.res.Expected != nil
	if checkLedger {
		vs = append(vs, Check(run.res.Ledger, run.res.Expected, ec.Healthy)...)
	}

	// Determinism: replay the recorded schedules and compare the
	// rendered report, the re-recorded schedules, and (when retained)
	// the provenance audit.
	replayT := *t
	replayT.Schedules = run.schedules
	rerun, err := runExperimentSeed(ec.Exp, &replayT, true)
	switch {
	case err != nil:
		vs = append(vs, Violation{OracleDeterminism, "replaying recorded case: " + err.Error()})
	case !equalSchedules(rerun.schedules, run.schedules):
		vs = append(vs, Violation{OracleDeterminism, fmt.Sprintf(
			"replay re-recorded a different schedule: %v, recorded %v", rerun.schedules, run.schedules)})
	case run.res.Render() != rerun.res.Render():
		vs = append(vs, Violation{OracleDeterminism, "replayed report differs from recorded report"})
	case checkLedger && !ec.SkipAuditDeterminism:
		want, werr := auditBytes(run.res.Ledger, run.res.Expected)
		got, gerr := auditBytes(rerun.res.Ledger, rerun.res.Expected)
		if werr != nil || gerr != nil || !bytes.Equal(want, got) {
			vs = append(vs, Violation{OracleDeterminism, "replayed audit differs from recorded audit"})
		}
	}
	t.Schedules = run.schedules
	stampTrace(t, vs)
	return vs, run
}

// sweepExperiment explores one experiment across the seed list,
// stopping after the first seed when the canonical run has no decision
// points (no admissible schedule differs from canonical).
func sweepExperiment(ec ExperimentCase, seeds []uint64) expSweep {
	var out expSweep
	for _, seed := range seeds {
		t := &Trace{Format: TraceFormat, Probe: ec.Exp.ID, Seed: seed}
		vs, run := checkExperimentCase(ec, t)
		out.cases++
		if run != nil {
			out.decisions += run.decisions
		}
		if len(vs) > 0 {
			out.violSeeds = append(out.violSeeds, seed)
			if out.first == nil {
				out.first = &Finding{Kind: "experiment", ID: ec.Exp.ID, Seed: seed,
					Violations: vs, Trace: t, OriginalEvents: t.Events()}
			}
		}
		if out.cases == 1 && run != nil && run.decisions == 0 {
			out.scheduleIndependent = true
			return out
		}
	}
	return out
}

// minimizeExperimentFinding shrinks an experiment finding's schedules
// (experiments have no synthesized clients or faults to reduce). It
// returns the number of candidate executions the shrink spent.
func minimizeExperimentFinding(ec ExperimentCase, f *Finding) int {
	if f.Trace.Oracle == OracleDeterminism || f.Trace.Oracle == "" {
		return 0
	}
	runs := 0
	runner := func(cand *Trace) (*caseRun, []Violation, error) {
		runs++
		run, err := runExperimentSeed(ec.Exp, cand, true)
		if err != nil {
			return nil, nil, err
		}
		var vs []Violation
		if !run.res.Pass {
			vs = append(vs, Violation{OracleReproduction,
				"experiment reports FAIL under explored schedule"})
		}
		if !ec.SkipLedgerOracles && run.res.Ledger != nil && run.res.Expected != nil {
			vs = append(vs, Check(run.res.Ledger, run.res.Expected, ec.Healthy)...)
		}
		return &caseRun{schedules: run.schedules, decisions: run.decisions}, vs, nil
	}
	f.Trace = shrinkWith(runner, f.Trace)
	return runs
}

// FailClosedViolations counts violating cases outside planted probes —
// the number that must be zero for a clean sweep.
func (r *Report) FailClosedViolations() int {
	n := 0
	for _, s := range r.Summaries {
		if !s.Planted {
			n += len(s.ViolSeeds)
		}
	}
	return n
}

// PlantedSwept reports whether any planted probe was part of the sweep.
func (r *Report) PlantedSwept() bool {
	for _, s := range r.Summaries {
		if s.Planted {
			return true
		}
	}
	return false
}

// PlantedFound reports whether the explorer caught a planted probe's
// violation.
func (r *Report) PlantedFound() bool {
	for _, s := range r.Summaries {
		if s.Planted && len(s.ViolSeeds) > 0 {
			return true
		}
	}
	return false
}

// PlantedMinEvents returns the event count of the smallest minimized
// planted counterexample (0 when none was found).
func (r *Report) PlantedMinEvents() int {
	min := 0
	for _, f := range r.Findings {
		if !f.Planted {
			continue
		}
		if e := f.Trace.Events(); min == 0 || e < min {
			min = e
		}
	}
	return min
}

// Render formats the sweep report. The bytes are deterministic for a
// fixed Options: independent of Workers, wall time, and host.
func (r *Report) Render() string {
	var b strings.Builder
	nProbes, nExps := 0, 0
	for _, s := range r.Summaries {
		if s.Kind == "probe" {
			nProbes++
		} else {
			nExps++
		}
	}
	fmt.Fprintf(&b, "schedule explorer: %d probes x %d seeds + %d experiments (seeds %d-%d)\n",
		nProbes, len(r.Seeds), nExps, r.Seeds[0], r.Seeds[len(r.Seeds)-1])
	fmt.Fprintf(&b, "decision points explored: %d\n\n", r.Decisions)

	for _, s := range r.Summaries {
		name := fmt.Sprintf("%s %s", s.Kind, s.ID)
		switch {
		case s.Planted && len(s.ViolSeeds) > 0:
			fmt.Fprintf(&b, "%-28s %3d case(s)  PLANTED violation found in %d case(s), first seed %d\n",
				name, s.Cases, len(s.ViolSeeds), s.ViolSeeds[0])
		case s.Planted:
			fmt.Fprintf(&b, "%-28s %3d case(s)  planted violation NOT FOUND\n", name, s.Cases)
		case len(s.ViolSeeds) > 0:
			fmt.Fprintf(&b, "%-28s %3d case(s)  VIOLATIONS in %d case(s), first seed %d\n",
				name, s.Cases, len(s.ViolSeeds), s.ViolSeeds[0])
		case s.ScheduleIndependent:
			fmt.Fprintf(&b, "%-28s %3d case(s)  clean (schedule-independent: no decision points)\n",
				name, s.Cases)
		default:
			fmt.Fprintf(&b, "%-28s %3d case(s)  clean\n", name, s.Cases)
		}
	}

	for _, f := range r.Findings {
		fmt.Fprintf(&b, "\n%s %s seed %d: oracle %s, minimized %d -> %d events\n",
			f.Kind, f.ID, f.Seed, f.Trace.Oracle, f.OriginalEvents, f.Trace.Events())
		fmt.Fprintf(&b, "  clients=%d faults=%q schedule=%s\n",
			f.Trace.Clients, f.Trace.Faults, renderSchedules(f.Trace.Schedules))
		for _, d := range f.Trace.Detail {
			fmt.Fprintf(&b, "  %s: %s\n", f.Trace.Oracle, d)
		}
	}

	b.WriteString("\n")
	if n := r.FailClosedViolations(); n > 0 {
		fmt.Fprintf(&b, "RESULT: %d invariant violation(s) on fail-closed cases\n", n)
	} else {
		b.WriteString("RESULT: zero invariant violations on fail-closed cases\n")
	}
	if r.PlantedSwept() {
		if r.PlantedFound() {
			fmt.Fprintf(&b, "RESULT: planted fail-open violation found and shrunk to %d events\n",
				r.PlantedMinEvents())
		} else {
			b.WriteString("RESULT: planted fail-open violation NOT found (explorer lost its teeth)\n")
		}
	}
	return b.String()
}

// renderSchedules formats a schedule set compactly for reports.
func renderSchedules(ss []simnet.ScheduleTrace) string {
	if len(ss) == 0 {
		return "canonical"
	}
	parts := make([]string, len(ss))
	for i, s := range ss {
		picks := make([]string, len(s))
		for j, p := range s {
			picks[j] = fmt.Sprint(p)
		}
		parts[i] = "[" + strings.Join(picks, " ") + "]"
	}
	return strings.Join(parts, ",")
}
