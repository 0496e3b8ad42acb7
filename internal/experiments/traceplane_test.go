package experiments

import (
	"bytes"
	"strings"
	"testing"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/telemetry/wiretrace"
)

// The trace-plane audit suite: the distributed-tracing layer is itself
// a set of vantage points, so it gets the same adversarial analysis as
// the protocols it observes. Every paper-table experiment runs with
// the plane in ModeRotate on both transports, and the audit must find
// the trace plane knowing exactly what the protocol plane knows —
// equal tuples at instrumented vantages, no coalition that links
// subjects through trace handles the protocol keeps unlinked. The
// planted ModeNaive (one global trace ID end-to-end) must be convicted
// as COUPLED on the same runs.

// tracePlaneTransports enumerates the two transport flavors the
// differential suite exercises. The direct-call stacks (ODNS, ODoH)
// don't move bytes through a transport.Runner, but their handoff
// propagation is transport-independent; the mixnet stacks cross real
// TCP frames under the "tcp" flavor.
func tracePlaneTransports() []struct {
	name string
	ctx  func() Ctx
} {
	return []struct {
		name string
		ctx  func() Ctx
	}{
		{"simnet", func() Ctx { return Ctx{} }},
		{"tcp", func() Ctx { return Ctx{transport: realTransport} }},
	}
}

// auditRotate runs the audit in ModeRotate expectations: verdict
// DECOUPLED, no entity widened, and every instrumented entity's trace
// tuple exactly equal to its protocol tuple.
func auditRotate(t *testing.T, plane *wiretrace.Plane, lg *ledger.Ledger, expected *core.System, wantInstrumented []string) *wiretrace.Report {
	t.Helper()
	rep, err := wiretrace.Audit(plane, lg, expected)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if !rep.Decoupled {
		var buf bytes.Buffer
		rep.WriteReport(&buf)
		t.Fatalf("rotate-mode trace plane audited COUPLED:\n%s", buf.String())
	}
	byName := map[string]wiretrace.EntityAudit{}
	for _, e := range rep.Entities {
		byName[e.Name] = e
		if e.Widened {
			t.Errorf("entity %s: trace tuple %s widens protocol tuple %s",
				e.Name, e.Trace.Symbol(), e.Proto.Symbol())
		}
	}
	for _, name := range wantInstrumented {
		e, ok := byName[name]
		if !ok {
			t.Errorf("entity %s missing from audit", name)
			continue
		}
		if !e.Instrumented {
			t.Errorf("entity %s: expected an instrumented vantage, found no spans", name)
			continue
		}
		if e.Widened || e.Narrowed {
			t.Errorf("entity %s: instrumented trace tuple %s != protocol tuple %s",
				name, e.Trace.Symbol(), e.Proto.Symbol())
		}
	}
	return rep
}

// auditNaive runs the audit in ModeNaive expectations: the global
// trace ID must be convicted as COUPLED with at least one coalition
// leak.
func auditNaive(t *testing.T, plane *wiretrace.Plane, lg *ledger.Ledger, expected *core.System) {
	t.Helper()
	rep, err := wiretrace.Audit(plane, lg, expected)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if rep.Decoupled {
		var buf bytes.Buffer
		rep.WriteReport(&buf)
		t.Fatalf("naive-mode trace plane audited DECOUPLED; the global trace ID must be convicted:\n%s", buf.String())
	}
	if len(rep.Leaks) == 0 {
		t.Errorf("naive-mode conviction carries no coalition leak evidence")
	}
}

// TestTracePlaneAuditTables runs every paper-table experiment under a
// rotating trace plane on both transports. Stacks without wire
// instrumentation contribute zero spans and must still audit clean
// (an empty trace plane knows nothing); the instrumented stacks (E2)
// must audit exactly equal.
func TestTracePlaneAuditTables(t *testing.T) {
	for _, tr := range tracePlaneTransports() {
		for _, exp := range All() {
			if exp.ID > "E9" || len(exp.ID) > 2 { // E1..E9: the paper-table experiments
				continue
			}
			if exp.ID == "E4" {
				// E4 runs two scenario halves against two ledgers; its
				// halves are audited individually in
				// TestTracePlaneAuditScenarios.
				continue
			}
			exp, tr := exp, tr
			t.Run(tr.name+"/"+exp.ID, func(t *testing.T) {
				plane := wiretrace.New(wiretrace.ModeRotate, 42)
				ctx := tr.ctx()
				ctx.Wire = plane
				res, err := exp.Run(ctx)
				if err != nil {
					t.Fatalf("%s: %v", exp.ID, err)
				}
				var instrumented []string
				if exp.ID == "E2" {
					instrumented = []string{"Mix 1", "Mix 2", "Mix 3", "Receiver"}
					if plane.SpanCount() == 0 {
						t.Fatalf("E2 produced no spans under an enabled plane")
					}
				}
				auditRotate(t, plane, res.Ledger, res.Expected, instrumented)
			})
		}
	}
}

// TestTracePlaneAuditScenarios audits the fully-instrumented audit
// scenarios — the mixnet cascade and both oblivious-DNS stacks — in
// both modes. Rotation must hold every instrumented vantage to exact
// tuple equality; the naive global ID must be convicted on every
// stack that decouples an entity pair the trace ID re-joins.
func TestTracePlaneAuditScenarios(t *testing.T) {
	scenarios := []struct {
		id           string
		expected     func() *core.System
		instrumented []string
	}{
		{"mixnet", func() *core.System { return core.Mixnet(3) },
			[]string{"Mix 1", "Mix 2", "Mix 3", "Receiver"}},
		{"odns", core.ObliviousDNS, []string{"Resolver", "Oblivious Resolver", "Origin"}},
		{"odoh", core.ObliviousDNS, []string{"Resolver", "Oblivious Resolver", "Origin"}},
	}
	for _, tr := range tracePlaneTransports() {
		for _, sc := range scenarios {
			sc, tr := sc, tr
			scenario, ok := FindScenario(sc.id)
			if !ok {
				t.Fatalf("scenario %s not registered", sc.id)
			}
			t.Run(tr.name+"/"+sc.id+"/rotate", func(t *testing.T) {
				plane := wiretrace.New(wiretrace.ModeRotate, 7)
				ctx := tr.ctx()
				ctx.Wire = plane
				lg, err := scenario.Run(ctx, 2)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if plane.SpanCount() == 0 {
					t.Fatalf("scenario produced no spans under an enabled plane")
				}
				auditRotate(t, plane, lg, sc.expected(), sc.instrumented)
			})
			t.Run(tr.name+"/"+sc.id+"/naive", func(t *testing.T) {
				plane := wiretrace.New(wiretrace.ModeNaive, 7)
				ctx := tr.ctx()
				ctx.Wire = plane
				lg, err := scenario.Run(ctx, 2)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				auditNaive(t, plane, lg, sc.expected())
			})
		}
	}
}

// TestTracePlaneNaiveLeakShape pins the conviction evidence for the
// mixnet cascade: the smallest leaking coalition must be an entry
// vantage plus the receiver — exactly the pair the mix cascade exists
// to keep unlinked, re-joined by the global trace ID.
func TestTracePlaneNaiveLeakShape(t *testing.T) {
	plane := wiretrace.New(wiretrace.ModeNaive, 11)
	scenario, _ := FindScenario("mixnet")
	lg, err := scenario.Run(Ctx{Wire: plane}, 1)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep, err := wiretrace.Audit(plane, lg, core.Mixnet(3))
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if rep.Decoupled || len(rep.Leaks) == 0 {
		t.Fatalf("expected a COUPLED verdict with leaks, got decoupled=%v leaks=%d", rep.Decoupled, len(rep.Leaks))
	}
	first := rep.Leaks[0]
	got := strings.Join(first.Coalition, "+")
	if len(first.Coalition) != 2 || got != "Mix 1+Receiver" {
		t.Errorf("smallest leaking coalition = {%s}, want {Mix 1+Receiver}", got)
	}
	if !strings.HasPrefix(first.Subject, "sender") {
		t.Errorf("leaked subject %q is not a sender", first.Subject)
	}
}
