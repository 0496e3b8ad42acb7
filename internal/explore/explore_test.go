package explore

import (
	"bytes"
	"strings"
	"testing"

	"decoupling/internal/experiments"
	"decoupling/internal/simnet"
	"decoupling/internal/telemetry"
)

func probe(t *testing.T, id string) experiments.Scenario {
	t.Helper()
	p, ok := experiments.FindScenario(id)
	if !ok {
		t.Fatalf("probe %q not registered", id)
	}
	return p
}

// --- Trace encoding -----------------------------------------------------

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	in := &Trace{
		Probe:     "odoh",
		Seed:      42,
		Clients:   3,
		Faults:    "crash:proxy@10ms-70ms",
		Schedules: []simnet.ScheduleTrace{{1, 0, 2}, nil, {0, 1}},
		Oracle:    OracleNoLeak,
		Detail:    []string{"x leaked"},
	}
	b, err := EncodeTrace(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("encode(decode(x)) not a fixpoint:\n%s\n%s", b, b2)
	}
	if out.Probe != in.Probe || out.Seed != in.Seed || out.Clients != in.Clients || out.Faults != in.Faults {
		t.Errorf("round trip lost fields: %+v", out)
	}
}

func TestDecodeTraceRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "not json"},
		{"wrong format", `{"format":"other/v9","probe":"odoh","clients":1}`},
		{"missing probe", `{"format":"decoupling-explore-trace/v1","clients":1}`},
		{"negative clients", `{"format":"decoupling-explore-trace/v1","probe":"odoh","clients":-1}`},
		{"bad fault plan", `{"format":"decoupling-explore-trace/v1","probe":"odoh","clients":1,"faults":"crash:x@zz"}`},
		{"unknown field", `{"format":"decoupling-explore-trace/v1","probe":"odoh","clients":1,"bogus":true}`},
		{"trailing value", `{"format":"decoupling-explore-trace/v1","probe":"odoh","clients":1} {"junk":1}`},
		{"trailing bytes", `{"format":"decoupling-explore-trace/v1","probe":"odoh","clients":1}}`},
	}
	for _, c := range cases {
		if _, err := DecodeTrace([]byte(c.in)); err == nil {
			t.Errorf("%s: DecodeTrace accepted %q", c.name, c.in)
		}
	}
}

func TestNormalizeSchedules(t *testing.T) {
	in := []simnet.ScheduleTrace{{1, 0, 0}, {0, 0}, {2}, nil, {0}}
	got := normalizeSchedules(in)
	want := []simnet.ScheduleTrace{{1}, nil, {2}}
	if !equalSchedules(got, want) {
		t.Errorf("normalizeSchedules = %v, want %v", got, want)
	}
	if normalizeSchedules([]simnet.ScheduleTrace{{0}, nil}) != nil {
		t.Error("all-canonical schedules should normalize to nil")
	}
}

func TestTraceEvents(t *testing.T) {
	tr := &Trace{Clients: 2, Faults: "crash:proxy@0s-;loss:*>*:0.5@0s-",
		Schedules: []simnet.ScheduleTrace{{1, 0, 2}}}
	// 2 clients + 2 fault clauses + 3 scheduling decisions.
	if got := tr.Events(); got != 7 {
		t.Errorf("Events() = %d, want 7", got)
	}
}

// --- Case synthesis -----------------------------------------------------

func TestSynthCaseDeterministicAndValid(t *testing.T) {
	p := probe(t, "odoh")
	for seed := uint64(1); seed <= 32; seed++ {
		a, b := synthCase(p, seed), synthCase(p, seed)
		if a.Faults != b.Faults || a.Clients != b.Clients {
			t.Fatalf("seed %d: synthesis not deterministic: %+v vs %+v", seed, a, b)
		}
		if a.Clients < 1 || a.Clients > p.MaxClients {
			t.Fatalf("seed %d: clients %d outside [1, %d]", seed, a.Clients, p.MaxClients)
		}
		if _, err := a.Plan(); err != nil {
			t.Fatalf("seed %d: synthesized plan %q invalid: %v", seed, a.Faults, err)
		}
	}
}

// --- Oracles over real probe runs --------------------------------------

func TestFailClosedProbesCleanUnderSweep(t *testing.T) {
	r := Sweep(Options{
		Seeds: SeedList(1, 4),
		Probes: []experiments.Scenario{
			probe(t, "odoh"), probe(t, "odns"),
		},
		Workers: 2,
	})
	if n := r.FailClosedViolations(); n != 0 {
		t.Fatalf("fail-closed probes produced %d violations:\n%s", n, r.Render())
	}
	if r.PlantedSwept() {
		t.Error("no planted probe in this sweep")
	}
}

// TestSilencingPlanIsACase: a plan that silences every mixnet sender
// is an ordinary explored case, not an error. The run reports
// ErrNothingDelivered, and the oracles check its quiet ledger.
func TestSilencingPlanIsACase(t *testing.T) {
	p := probe(t, "mixnet")
	tr := &Trace{Probe: p.ID, Clients: 2, Faults: "crash:mix1@0-"}
	run, err := runCase(p, tr, 1, false)
	if err != nil {
		t.Fatalf("runCase: %v", err)
	}
	if vs := Check(run.lg, p.Expected(), healthyCase(p, tr)); len(vs) != 0 {
		t.Errorf("silenced run violates oracles: %v", vs)
	}
}

func TestSweepFindsAndShrinksPlantedViolation(t *testing.T) {
	r := Sweep(Options{
		Seeds:   SeedList(1, 4),
		Probes:  []experiments.Scenario{probe(t, "odoh-failopen")},
		Workers: 2,
	})
	if !r.PlantedFound() {
		t.Fatalf("planted fail-open violation not found:\n%s", r.Render())
	}
	if len(r.Findings) == 0 {
		t.Fatal("no findings recorded")
	}
	f := r.Findings[0]
	if f.Trace.Oracle != OracleNoLeak {
		t.Errorf("planted violation oracle = %q, want %q", f.Trace.Oracle, OracleNoLeak)
	}
	if e := f.Trace.Events(); e > 5 {
		t.Errorf("minimized counterexample has %d events, want <= 5:\n%s", e, r.Render())
	}
	if f.Trace.Events() > f.OriginalEvents {
		t.Errorf("shrinking grew the case: %d -> %d events", f.OriginalEvents, f.Trace.Events())
	}

	// The minimized trace must be replayable and reproduce its oracle.
	b, err := EncodeTrace(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Errorf("minimized trace did not reproduce oracle %s:\n%s", tr.Oracle, res.Render())
	}
}

func TestSweepRenderIsWorkerIndependent(t *testing.T) {
	opts := Options{
		Seeds:  SeedList(1, 3),
		Probes: []experiments.Scenario{probe(t, "odoh"), probe(t, "odoh-failopen")},
	}
	opts.Workers = 1
	a := Sweep(opts).Render()
	opts.Workers = 8
	b := Sweep(opts).Render()
	if a != b {
		t.Errorf("report depends on worker count:\n--- workers=1\n%s\n--- workers=8\n%s", a, b)
	}
}

func TestSweepEmitsTelemetryCounters(t *testing.T) {
	m := telemetry.NewMetrics()
	r := Sweep(Options{
		Seeds:   SeedList(1, 2),
		Probes:  []experiments.Scenario{probe(t, "odoh-failopen")},
		Workers: 1,
		Tel:     telemetry.New(false, m),
	})
	if len(m.CounterSeries(telemetry.MetricExploreCases)) == 0 {
		t.Error("no explore case counters emitted")
	}
	if len(m.CounterSeries(telemetry.MetricExploreViolations)) == 0 {
		t.Error("planted violations not counted")
	}
	if r.Decisions > 0 && len(m.CounterSeries(telemetry.MetricExploreDecisions)) == 0 {
		t.Error("decision points not counted")
	}
	if len(r.Findings) > 0 && len(m.CounterSeries(telemetry.MetricExploreShrinkRuns)) == 0 {
		t.Error("shrink runs not counted")
	}
}

func TestReplayUnknownProbe(t *testing.T) {
	if _, err := Replay(&Trace{Format: TraceFormat, Probe: "nope", Clients: 1}, 1); err == nil {
		t.Error("Replay accepted an unknown probe id")
	}
}

// --- Shrinker (synthetic runner: no protocol runs) ----------------------

// syntheticRunner reports a no-leak violation iff the case still has at
// least minClients clients AND retains the "crash:proxy@0s-" clause.
// The shrinker must strip everything else and nothing more.
func syntheticRunner(minClients int) shrinkRunner {
	return func(cand *Trace) (*caseRun, []Violation, error) {
		keep := false
		for _, c := range strings.Split(cand.Faults, ";") {
			if c == "crash:proxy@0s-" {
				keep = true
			}
		}
		if cand.Clients >= minClients && keep {
			return &caseRun{}, []Violation{{OracleNoLeak, "synthetic leak"}}, nil
		}
		return &caseRun{}, nil, nil
	}
}

func TestShrinkReachesMinimalCase(t *testing.T) {
	start := &Trace{
		Format:  TraceFormat,
		Probe:   "synthetic",
		Clients: 8,
		Faults:  "loss:*>*:0.5@0s-;crash:proxy@0s-;partition:a>b@10ms-20ms",
		Schedules: []simnet.ScheduleTrace{
			{3, 0, 1}, {0, 2},
		},
		Oracle: OracleNoLeak,
	}
	got := shrinkWith(syntheticRunner(2), start)
	if got.Clients != 2 {
		t.Errorf("clients = %d, want 2", got.Clients)
	}
	if got.Faults != "crash:proxy@0s-" {
		t.Errorf("faults = %q, want the single necessary clause", got.Faults)
	}
	if len(got.Schedules) != 0 {
		t.Errorf("schedules = %v, want none (synthetic violation is schedule-free)", got.Schedules)
	}
	if got.Events() != 3 {
		t.Errorf("minimal case has %d events, want 3 (2 clients + 1 clause)", got.Events())
	}
	// Input must not be mutated.
	if start.Clients != 8 || len(start.Schedules) != 2 {
		t.Errorf("shrinkWith mutated its input: %+v", start)
	}
}

func TestShrinkKeepsOracleNotJustAnyViolation(t *testing.T) {
	// Runner: dropping below 3 clients trades the no-leak violation for
	// a verdict violation. The shrinker must NOT accept that trade.
	run := func(cand *Trace) (*caseRun, []Violation, error) {
		if cand.Clients >= 3 {
			return &caseRun{}, []Violation{{OracleNoLeak, "leak"}}, nil
		}
		return &caseRun{}, []Violation{{OracleVerdictStability, "other bug"}}, nil
	}
	got := shrinkWith(run, &Trace{Probe: "synthetic", Clients: 6, Oracle: OracleNoLeak})
	if got.Clients != 3 {
		t.Errorf("clients = %d, want 3 (smallest count preserving the SAME oracle)", got.Clients)
	}
}

func TestNonzeroDecisionsMetric(t *testing.T) {
	tr := &Trace{Schedules: []simnet.ScheduleTrace{{0, 3, 0}, {1}}}
	if got := nonzeroDecisions(tr); got != 2 {
		t.Errorf("nonzeroDecisions = %d, want 2", got)
	}
}

// --- Experiment sweep ---------------------------------------------------

func TestSweepExperimentScheduleIndependenceShortCircuit(t *testing.T) {
	// E1 drives no simnet, so its canonical run has zero decision
	// points and one seed must cover the whole sweep.
	var e1 ExperimentCase
	for _, c := range DefaultExperimentCases() {
		if c.Exp.ID == "E1" {
			e1 = c
		}
	}
	out := sweepExperiment(e1, SeedList(1, 16))
	if !out.scheduleIndependent {
		t.Error("E1 not detected as schedule-independent")
	}
	if out.cases != 1 {
		t.Errorf("E1 ran %d cases, want 1", out.cases)
	}
	if len(out.violSeeds) != 0 {
		t.Errorf("E1 violations: %v", out.violSeeds)
	}
}

func TestDefaultExperimentCasesConfiguration(t *testing.T) {
	byID := map[string]ExperimentCase{}
	for _, c := range DefaultExperimentCases() {
		byID[c.Exp.ID] = c
	}
	if len(byID) != 16 {
		t.Fatalf("%d experiment cases, want 16", len(byID))
	}
	for _, id := range []string{"E14", "E15", "E16"} {
		if byID[id].Healthy {
			t.Errorf("%s: chaos experiment must not assert tuple equality", id)
		}
	}
	if !byID["E16"].SkipLedgerOracles {
		t.Error("E16 retains the intentionally-coupled fail-open ledger; ledger oracles must be skipped")
	}
	for _, id := range []string{"E6", "E8"} {
		if !byID[id].SkipAuditDeterminism {
			t.Errorf("%s: real-loopback experiment needs the audit-determinism exemption", id)
		}
	}
	if byID["E2"].SkipAuditDeterminism || !byID["E2"].Healthy {
		t.Error("E2 should carry the full oracle set")
	}
}
