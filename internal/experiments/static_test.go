package experiments

import (
	"bytes"
	"strings"
	"testing"

	"decoupling/internal/core"
	"decoupling/internal/dnswire"
	"decoupling/internal/nettransport"
	"decoupling/internal/odoh"
	"decoupling/internal/provenance"
	"decoupling/internal/schema"
	"decoupling/internal/transport"
)

func tcpFactory(seed int64) transport.Runner {
	return nettransport.New(nettransport.Options{Seed: seed})
}

// TestStaticCoversMeasured is the tentpole invariant sweep: for every
// experiment E1-E16, on both the in-process simnet transport and real
// loopback TCP, the knowledge tuples measured from the run's ledger
// must stay inside the tuples derived statically from the declared
// schemas (static ⊇ measured), with no unexplained gap in either
// direction. E10-E12 measure costs, not knowledge, and must report no
// bindings rather than a vacuous pass.
func TestStaticCoversMeasured(t *testing.T) {
	transports := []struct {
		name    string
		factory func(seed int64) transport.Runner
	}{
		{"simnet", nil},
		{"nettransport", tcpFactory},
	}
	for _, tr := range transports {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			r := Runner{Workers: 4, Transport: tr.factory}
			results := r.Run(All())
			checked := 0
			for _, rr := range results {
				if rr.Err != nil {
					t.Errorf("%s: %v", rr.ID, rr.Err)
					continue
				}
				confs, err := StaticCheck(rr.Result)
				if err != nil {
					t.Errorf("%s: %v", rr.ID, err)
					continue
				}
				if confs == nil {
					if len(staticBindings[rr.ID]) != 0 {
						t.Errorf("%s: bound to %v but StaticCheck returned nothing", rr.ID, staticBindings[rr.ID])
					}
					continue
				}
				for _, sc := range confs {
					checked++
					if !sc.Conf.OK() {
						for _, v := range sc.Conf.Violations {
							t.Errorf("%s/%s: static ⊇ measured VIOLATED: %s", rr.ID, sc.Scenario, v)
						}
					}
					for _, g := range sc.Conf.Gaps {
						if !g.Waived {
							t.Errorf("%s/%s: unexercised gap: %s", rr.ID, sc.Scenario, g)
						}
					}
				}
			}
			// Every bound experiment must have been checked: 13 bound ids,
			// E4 contributing two scenarios.
			if want := len(staticBindings) + 1; checked != want {
				t.Errorf("checked %d (experiment, scenario) pairs, want %d", checked, want)
			}
		})
	}
}

// TestRenderStaticByteStable pins the determinism contract for the
// -static report section: its bytes may not depend on the worker count.
func TestRenderStaticByteStable(t *testing.T) {
	render := func(workers int) string {
		r := Runner{Workers: workers}
		var buf bytes.Buffer
		violations, err := RenderStatic(&buf, r.Run(All()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if violations != 0 {
			t.Fatalf("workers=%d: %d violations:\n%s", workers, violations, buf.String())
		}
		return buf.String()
	}
	base := render(1)
	if !strings.Contains(base, "E16  odoh-failopen  static ⊇ measured (exact)") {
		t.Errorf("report missing E16 row:\n%s", base)
	}
	if !strings.Contains(base, "E10  n/a") {
		t.Errorf("report missing E10 n/a row:\n%s", base)
	}
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != base {
			t.Errorf("static report differs between -parallel 1 and %d:\n--- 1 ---\n%s\n--- %d ---\n%s",
				workers, base, workers, got)
		}
	}
}

// TestStaticBindingsShape pins the binding table: which experiments are
// bound, and the E4 double binding.
func TestStaticBindingsShape(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E13", "E14", "E15", "E16"}
	if len(staticBindings) != len(want) {
		t.Errorf("%d bound experiments, want %d (%v)", len(staticBindings), len(want), want)
	}
	for _, id := range want {
		if len(staticBindings[id]) == 0 {
			t.Errorf("%s has no static bindings", id)
		}
	}
	if b := staticBindings["E4"]; len(b) != 2 || b[0] != "odns" || b[1] != "odoh" {
		t.Errorf("staticBindings[E4] = %v", b)
	}
	if staticBindings["E10"] != nil {
		t.Errorf("E10 should have no bindings")
	}
}

// TestUnderDeclaredSchemaConvictedWithProvenance is the second planted
// negative control: a deployment whose handler reads more than its
// declaration admits. The schema variant below omits the oblivious
// resolver's declared read of the decrypted query, so the real run's
// measured (△, ●) tuple is no longer licensed — the check must fail
// naming the handler and axis, and the rendered violation must carry
// the run's provenance evidence chain for the unlicensed component.
func TestUnderDeclaredSchemaConvictedWithProvenance(t *testing.T) {
	var res *Result
	for _, rr := range (&Runner{Workers: 1}).Run(All()) {
		if rr.ID == "E14" {
			if rr.Err != nil {
				t.Fatalf("E14: %v", rr.Err)
			}
			res = rr.Result
		}
	}
	if res == nil || res.Measured == nil || res.Ledger == nil {
		t.Fatal("E14 did not retain a measured system and ledger")
	}

	sc := odoh.StaticSchema()
	resolver := sc.Role(odoh.TargetName)
	var kept []schema.Use
	for _, u := range resolver.Receives {
		switch u.Message {
		case odoh.SchemaPlainQuery:
			// drop the declared read of the decrypted query entirely
		case dnswire.SchemaResponse:
			// keep the use (the recursion flow needs it) but read nothing
			kept = append(kept, schema.Use{Message: u.Message})
		default:
			kept = append(kept, u)
		}
	}
	resolver.Receives = kept
	for i, u := range resolver.Sends {
		if u.Message == dnswire.SchemaRecursiveQuery {
			// originate only the routing fields, never the query name
			resolver.Sends[i].Fields = []string{"src_addr", "qtype"}
		}
	}
	st, err := schema.Derive(sc)
	if err != nil {
		t.Fatalf("derive under-declared schema: %v", err)
	}
	conf, err := st.Check(res.Measured)
	if err != nil {
		t.Fatal(err)
	}
	if conf.OK() {
		t.Fatalf("under-declared schema passed: %s", conf.Summary())
	}
	var v *schema.Violation
	for i := range conf.Violations {
		if conf.Violations[i].Entity == odoh.TargetName {
			v = &conf.Violations[i]
		}
	}
	if v == nil {
		t.Fatalf("no violation names %q: %v", odoh.TargetName, conf.Violations)
	}
	if v.Component.Kind != core.Data || v.Component.Level != core.Sensitive {
		t.Errorf("violation component = %+v, want sensitive data", v.Component)
	}

	audit, err := provenance.Derive(res.Ledger, res.Expected)
	if err != nil {
		t.Fatal(err)
	}
	v.Evidence = audit.ExplainComponent(v.Entity, v.Component.Kind, v.Component.Label)
	if len(v.Evidence) == 0 {
		t.Fatal("no provenance evidence for the unlicensed measured component")
	}
	rendered := schema.RenderViolation(*v)
	for _, want := range []string{"static ⊇ measured VIOLATED", odoh.TargetName, "measured provenance chain:"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered violation missing %q:\n%s", want, rendered)
		}
	}
}

// TestStaticGapFlaggedAndWaivable is the regression harness for the
// static ⊋ measured direction. The declarations license the oblivious
// resolver's sensitive-data read, but a hypothetical reduced run that
// never exercises it must flag the axis as declared-but-unexercised —
// and a documented waiver must convert the same gap into a waived pass
// rather than silencing it.
func TestStaticGapFlaggedAndWaivable(t *testing.T) {
	reduced := &core.System{
		Name: "Oblivious DNS (reduced run)",
		Entities: []core.Entity{
			{Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()}},
			{Name: odoh.ProxyName, Knows: core.Tuple{core.SensID(), core.NonSensData()}, Links: []string{"proxy-leg"}},
			{Name: odoh.TargetName, Knows: core.Tuple{core.NonSensID(), core.NonSensData()}, Links: []string{"target-leg"}},
		},
	}
	dataAxis := schema.Axis{Kind: core.Data}

	st, err := schema.Derive(odoh.StaticSchema())
	if err != nil {
		t.Fatal(err)
	}
	conf, err := st.Check(reduced)
	if err != nil {
		t.Fatal(err)
	}
	if !conf.OK() {
		t.Fatalf("reduced run should not violate: %v", conf.Violations)
	}
	var gap *schema.Gap
	for i := range conf.Gaps {
		if conf.Gaps[i].Entity == odoh.TargetName && conf.Gaps[i].Axis == dataAxis {
			gap = &conf.Gaps[i]
		}
	}
	if gap == nil {
		t.Fatalf("expected an unexercised gap for %s on %s, got %v", odoh.TargetName, dataAxis, conf.Gaps)
	}
	if gap.Waived {
		t.Errorf("gap should not be waived: %s", gap)
	}
	if !strings.Contains(conf.Summary(), "unexercised") {
		t.Errorf("summary hides the unexercised gap: %s", conf.Summary())
	}

	waived := odoh.StaticSchema()
	waived.Waivers = append(waived.Waivers, schema.Waiver{
		Role: odoh.TargetName, Axis: dataAxis,
		Reason: "reduced sweep never drives a query to the oblivious resolver",
	})
	st2, err := schema.Derive(waived)
	if err != nil {
		t.Fatal(err)
	}
	conf2, err := st2.Check(reduced)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range conf2.Gaps {
		if g.Entity == odoh.TargetName && g.Axis == dataAxis {
			found = true
			if !g.Waived || !strings.Contains(g.String(), "waived:") {
				t.Errorf("gap not rendered as waived: %s", g)
			}
		}
	}
	if !found {
		t.Error("waived gap disappeared from the report")
	}
	if !strings.Contains(conf2.Summary(), "waived gap") {
		t.Errorf("summary = %q, want a waived-gap note", conf2.Summary())
	}
}
