package explore

import (
	"bytes"
	"strings"
	"testing"

	"decoupling/internal/experiments"
	"decoupling/internal/simnet"
	"decoupling/internal/telemetry"
	"decoupling/internal/transport"
)

func probe(t *testing.T, id string) experiments.Scenario {
	t.Helper()
	p, ok := experiments.FindScenario(id)
	if !ok {
		t.Fatalf("probe %q not registered", id)
	}
	return p
}

// cases returns the named entries of Cases, in the order given.
func cases(t *testing.T, ids ...string) []Case {
	t.Helper()
	byID := map[string]Case{}
	for _, c := range Cases() {
		byID[c.ID] = c
	}
	var out []Case
	for _, id := range ids {
		c, ok := byID[id]
		if !ok {
			t.Fatalf("no case %q", id)
		}
		out = append(out, c)
	}
	return out
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
		Seeds:   SeedList(1, 4),
		Cases:   cases(t, "odoh", "odns"),
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
	c := cases(t, "mixnet")[0]
	tr := &Trace{Probe: c.ID, Clients: 2, Faults: "crash:mix1@0-"}
	run, err := execute(c, tr, 1, false)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if vs := oracles(c, tr, run); len(vs) != 0 {
		t.Errorf("silenced run violates oracles: %v", vs)
	}
}

func TestSweepFindsAndShrinksPlantedViolation(t *testing.T) {
	r := Sweep(Options{
		Seeds:   SeedList(1, 4),
		Cases:   cases(t, "odoh-failopen"),
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
		Seeds: SeedList(1, 3),
		Cases: cases(t, "odoh", "odoh-failopen"),
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
		Cases:   cases(t, "odoh-failopen"),
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
	// points and one seed must cover the whole sweep. The odoh probe
	// hits none either, but it synthesizes clients and faults per seed,
	// and E2's mixnet has decision points, so both run every seed.
	r := Sweep(Options{Seeds: SeedList(1, 8), Cases: cases(t, "odoh", "E1", "E2"), Workers: 2})
	for i, want := range []int{8, 1, 8} {
		s := r.Summaries[i]
		if s.ScheduleIndependent != (want == 1) || s.Cases != want {
			t.Errorf("%s: schedule-independent %v, %d cases; want %d cases", s.ID, s.ScheduleIndependent, s.Cases, want)
		}
	}
	if n := r.FailClosedViolations(); n != 0 {
		t.Errorf("%d violations:\n%s", n, r.Render())
	}
}

func TestCasesConfiguration(t *testing.T) {
	var exps []Case
	for i, c := range Cases() {
		if c.Kind == "experiment" {
			exps = append(exps, c)
		} else if len(exps) > 0 {
			t.Errorf("case %d (%s %s) follows an experiment; probes come first", i, c.Kind, c.ID)
		}
	}
	if len(exps) != 16 {
		t.Fatalf("%d experiment cases, want 16", len(exps))
	}
	runs := map[string]*caseRun{}
	for _, c := range cases(t, "E2", "E6", "E8", "E16") {
		tr := c.synth(1)
		run, err := execute(c, tr, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		if vs := oracles(c, tr, run); len(vs) != 0 {
			t.Errorf("%s: %v", c.ID, vs)
		}
		runs[c.ID] = run
	}
	if runs["E16"].lg != nil {
		t.Error("E16 retains the intentionally-coupled fail-open ledger; ledger oracles must be skipped")
	}
	for _, id := range []string{"E6", "E8"} {
		if runs[id].lg == nil || runs[id].audit != "" {
			t.Errorf("%s: real-loopback experiment needs its ledger checked and its audit bytes left uncompared", id)
		}
	}
	// The full oracle set: PASS, every ledger oracle with tuple
	// equality (a schedule-only trace is healthy), and the audit.
	e2 := cases(t, "E2")[0]
	if tr := e2.synth(1); runs["E2"].lg == nil || runs["E2"].audit == "" ||
		tr.Faults != "" || tr.Clients != e2.clients {
		t.Error("E2 should carry the full oracle set")
	}
}

// orderExperiment is a planted schedule-dependent experiment: three
// senders reach one receiver at the same virtual instant, the receiver
// acknowledges each, and the experiment passes only when s0's message
// arrives first, as in the canonical order.
func orderExperiment(ctx experiments.Ctx) (*experiments.Result, error) {
	n := ctx.NewNet(1)
	var order []transport.Addr
	n.Register("r", func(tr transport.Transport, m transport.Message) {
		order = append(order, m.Src)
		tr.Send("r", m.Src, []byte("ack"))
	})
	senders := []transport.Addr{"s0", "s1", "s2"}
	for _, s := range senders {
		n.Register(s, func(transport.Transport, transport.Message) {})
	}
	for _, s := range senders {
		if err := n.Send(s, "r", []byte("hello")); err != nil {
			return nil, err
		}
	}
	n.Run()
	return &experiments.Result{ID: "order", Pass: len(order) == 3 && order[0] == "s0"}, nil
}

// TestSweepFindsAndShrinksScheduleDependentExperiment: the shared
// path must find an experiment whose PASS depends on the schedule,
// shrink it to one divergent pick, and replay that trace to the same
// violation.
func TestSweepFindsAndShrinksScheduleDependentExperiment(t *testing.T) {
	c := experimentCase(experiments.Experiment{ID: "order", Run: orderExperiment})
	r := Sweep(Options{Seeds: SeedList(1, 8), Cases: []Case{c}, Workers: 2})
	s := r.Summaries[0]
	if s.ScheduleIndependent || s.Cases != 8 || len(s.ViolSeeds) == 0 {
		t.Fatalf("schedule-dependent experiment not found:\n%s", r.Render())
	}
	f := r.Findings[0]
	if f.Kind != "experiment" || f.Trace.Oracle != OracleReproduction {
		t.Errorf("finding %s, oracle %q; want experiment, %q", f.Kind, f.Trace.Oracle, OracleReproduction)
	}
	if n := nonzeroDecisions(f.Trace); n != 1 || f.Trace.Events() != 1 {
		t.Errorf("minimized to %d divergent picks, %d events (schedules %v); want 1, 1",
			n, f.Trace.Events(), f.Trace.Schedules)
	}
	if f.OriginalEvents <= f.Trace.Events() {
		t.Errorf("shrinking removed nothing: %d -> %d events", f.OriginalEvents, f.Trace.Events())
	}

	b, err := EncodeTrace(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay(c, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Errorf("minimized trace did not reproduce oracle %s:\n%s", tr.Oracle, res.Render())
	}
}
