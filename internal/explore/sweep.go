package explore

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"decoupling/internal/simnet"
	"decoupling/internal/telemetry"
)

// Options configures a sweep.
type Options struct {
	// Seeds is the sweep's seed list (SeedList builds the standard
	// contiguous one). Required, and non-empty.
	Seeds []uint64
	// Cases are the probes and experiments to explore, in report order
	// (Cases lists them all).
	Cases []Case
	// Workers sizes the case worker pool (default GOMAXPROCS).
	Workers int
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
	// ScheduleIndependent marks a case that synthesizes only its
	// schedule and whose first seed hit zero decision points: every
	// admissible schedule is the canonical one, so a single seed
	// covers the space.
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

// Sweep explores every (case, seed) pair, one per worker-pool item, and
// minimizes the first violating seed of each case. Every case's first
// seed runs before the others, so a schedule-independent case runs
// that seed alone.
func Sweep(o Options) *Report {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	type seedResult struct {
		vs        []Violation
		trace     *Trace
		decisions int
	}
	results := make([][]seedResult, len(o.Cases))
	indep := make([]bool, len(o.Cases))
	runSeed := func(ci, si int) func() {
		return func() {
			c := o.Cases[ci]
			t := c.synth(o.Seeds[si])
			vs, run := check(c, t)
			sr := seedResult{vs: vs, trace: t}
			if run != nil {
				sr.decisions = run.decisions
			}
			results[ci][si] = sr
			if si == 0 {
				indep[ci] = run != nil && run.decisions == 0 && t.Clients == 0 && t.Faults == ""
			}
		}
	}
	var lead, rest []func()
	for ci := range o.Cases {
		results[ci] = make([]seedResult, len(o.Seeds))
		lead = append(lead, runSeed(ci, 0))
	}
	runAll(o.Workers, lead)
	for ci := range o.Cases {
		for si := 1; si < len(o.Seeds) && !indep[ci]; si++ {
			rest = append(rest, runSeed(ci, si))
		}
	}
	runAll(o.Workers, rest)

	// Fold in (case, seed) order.
	r := &Report{Seeds: o.Seeds}
	shrinkRuns := 0
	for ci, c := range o.Cases {
		s := Summary{Kind: c.Kind, ID: c.ID, Cases: len(o.Seeds), Planted: c.Planted,
			ScheduleIndependent: indep[ci]}
		if s.ScheduleIndependent {
			s.Cases = 1
		}
		var first *Finding
		for si, sr := range results[ci][:s.Cases] {
			r.Decisions += sr.decisions
			if len(sr.vs) == 0 {
				continue
			}
			s.ViolSeeds = append(s.ViolSeeds, o.Seeds[si])
			if first == nil {
				first = &Finding{Kind: c.Kind, ID: c.ID, Seed: o.Seeds[si], Planted: c.Planted,
					Violations: sr.vs, Trace: sr.trace, OriginalEvents: sr.trace.Events()}
			}
		}
		if first != nil {
			shrinkRuns += minimize(c, first)
			r.Findings = append(r.Findings, *first)
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

// runAll runs fns on a pool of workers and waits for every one.
func runAll(workers int, fns []func()) {
	var wg sync.WaitGroup
	next := make(chan func())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fn := range next {
				fn()
			}
		}()
	}
	for _, fn := range fns {
		next <- fn
	}
	close(next)
	wg.Wait()
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

// minimize shrinks a finding in place (determinism violations are
// reported unshrunk — a nondeterministic case cannot be validated by
// replay). It returns the number of candidate executions the shrink
// spent.
func minimize(c Case, f *Finding) int {
	if f.Trace.Oracle == OracleDeterminism {
		return 0
	}
	runs := 0
	f.Trace = shrinkWith(func(cand *Trace) (*caseRun, []Violation, error) {
		runs++
		run, err := execute(c, cand, 1, true)
		if err != nil {
			return nil, nil, err
		}
		return run, oracles(c, cand, run), nil
	}, f.Trace)
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
