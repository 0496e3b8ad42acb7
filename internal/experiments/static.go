package experiments

import (
	"fmt"
	"io"
	"strings"

	"decoupling/internal/core"
	"decoupling/internal/provenance"
	"decoupling/internal/schema"
	"decoupling/internal/schema/catalog"
)

// staticBindings maps each experiment to the catalog scenarios whose
// static derivations its measured system is checked against. An
// experiment absent here has no measured decoupling table (E10–E12
// measure costs, not knowledge) and reports n/a.
//
// E4 runs both §3.2.2 instantiations against the same published table,
// so both declared protocols must bound its measurement. E14/E15
// exercise ODoH under faults — knowledge must stay inside the same
// schema no matter how the run degrades. E16 measures the fail-open
// architecture, whose own (deliberately coupled) declaration licenses
// it; the point is that the base odoh schema would NOT.
var staticBindings = map[string][]string{
	"E1":  {"digitalcash"},
	"E2":  {"mixnet"},
	"E3":  {"privacypass"},
	"E4":  {"odns", "odoh"},
	"E5":  {"pgpp"},
	"E6":  {"mpr"},
	"E7":  {"ppm"},
	"E8":  {"vpn"},
	"E9":  {"ech"},
	"E13": {"tee"},
	"E14": {"odoh"},
	"E15": {"odoh"},
	"E16": {"odoh-failopen"},
}

// StaticConformance is one scenario's static ⊇ measured check for one
// experiment.
type StaticConformance struct {
	ExperimentID string
	Scenario     string
	Conf         *schema.Conformance
}

// StaticCheck derives every scenario bound to the experiment and checks
// static ⊇ measured against the experiment's measured system. When the
// result retains its ledger, each violation is annotated with the
// measured component's provenance evidence chain.
func StaticCheck(r *Result) ([]StaticConformance, error) {
	ids := staticBindings[r.ID]
	if len(ids) == 0 {
		return nil, nil
	}
	measured, expected := r.Measured, r.Expected
	if r.ID == "E13" {
		// E13 publishes no system table; its measured claim is the single
		// CDN-operator tuple derived from the run's ledger.
		measured, expected = teeMeasuredSystem(r)
	}
	var out []StaticConformance
	for _, id := range ids {
		sc, err := catalog.Get(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID, err)
		}
		st, err := schema.Derive(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: derive scenario %q: %w", r.ID, id, err)
		}
		conf, err := st.Check(measured)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID, err)
		}
		if len(conf.Violations) > 0 && r.Ledger != nil && expected != nil {
			if audit, aerr := provenance.Derive(r.Ledger, expected); aerr == nil {
				for i := range conf.Violations {
					v := &conf.Violations[i]
					v.Evidence = audit.ExplainComponent(v.Entity, v.Component.Kind, v.Component.Label)
				}
			}
		}
		out = append(out, StaticConformance{ExperimentID: r.ID, Scenario: id, Conf: conf})
	}
	return out, nil
}

// teeMeasuredSystem builds E13's one-entity measured system: the CDN
// operator's tuple derived from the retained ledger against the
// schema-predicted template.
func teeMeasuredSystem(r *Result) (measured, expected *core.System) {
	sys := &core.System{Name: "TEE keyless CDN (Phoenix)", Section: "4.3"}
	if r.Ledger == nil {
		return nil, nil
	}
	tuple := r.Ledger.DeriveTuple("CDN Operator", core.Tuple{core.NonSensID(), core.NonSensData()})
	sys.Entities = []core.Entity{{Name: "CDN Operator", Knows: tuple, Links: []string{"cdn-conn"}}}
	return sys, sys
}

// RenderStatic writes the per-experiment static-conformance section for
// a completed run and returns the total violation count. Results render
// in input order; all content is derived from declarations and the
// deterministic measured systems, so the section is byte-identical
// across -parallel settings.
func RenderStatic(w io.Writer, results []RunnerResult) (violations int, err error) {
	fmt.Fprintf(w, "Static conformance (static ⊇ measured, from declared schemas):\n")
	for _, rr := range results {
		if rr.Err != nil || rr.Result == nil {
			fmt.Fprintf(w, "  %-4s (run failed — not checked)\n", rr.ID)
			continue
		}
		confs, cerr := StaticCheck(rr.Result)
		if cerr != nil {
			return violations, cerr
		}
		if confs == nil {
			fmt.Fprintf(w, "  %-4s n/a (no measured decoupling table)\n", rr.ID)
			continue
		}
		for _, sc := range confs {
			fmt.Fprintf(w, "  %-4s %-14s %s\n", rr.ID, sc.Scenario, sc.Conf.Summary())
			violations += len(sc.Conf.Violations)
			for _, v := range sc.Conf.Violations {
				for _, line := range strings.Split(strings.TrimRight(schema.RenderViolation(v), "\n"), "\n") {
					fmt.Fprintf(w, "       %s\n", line)
				}
			}
			for _, g := range sc.Conf.Gaps {
				fmt.Fprintf(w, "       gap: %s\n", g)
			}
		}
	}
	return violations, nil
}
