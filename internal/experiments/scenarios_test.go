package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"decoupling/internal/provenance"
)

// renderScenario runs a scenario and renders its full audit (report +
// JSONL + DOT + graph JSON) into one byte string.
func renderScenario(t *testing.T, id string, parallel int) string {
	t.Helper()
	sc, ok := FindScenario(id)
	if !ok || sc.Run == nil {
		t.Fatalf("scenario %q not found", id)
	}
	lg, err := sc.Run(Ctx{}, parallel)
	if err != nil {
		t.Fatalf("scenario %s: %v", id, err)
	}
	a, err := provenance.Derive(lg, sc.Expected())
	if err != nil {
		t.Fatalf("scenario %s: derive audit: %v", id, err)
	}
	var b bytes.Buffer
	for _, render := range []func(*bytes.Buffer) error{
		func(w *bytes.Buffer) error { return provenance.WriteReport(w, a) },
		func(w *bytes.Buffer) error { return provenance.WriteJSONL(w, a) },
		func(w *bytes.Buffer) error { return provenance.WriteDOT(w, a) },
		func(w *bytes.Buffer) error { return provenance.WriteGraphJSON(w, a) },
	} {
		if err := render(&b); err != nil {
			t.Fatalf("scenario %s: render: %v", id, err)
		}
	}
	return b.String()
}

// TestAuditScenariosDeterministic is the cross-run / cross-parallel
// determinism contract for every shipped scenario: fresh processes of
// the protocol (fresh HPKE keys, fresh ciphertexts, different
// goroutine interleavings) must render byte-identical audits.
func TestAuditScenariosDeterministic(t *testing.T) {
	t.Parallel()
	for _, sc := range Scenarios() {
		if sc.Run == nil {
			continue
		}
		sc := sc
		t.Run(sc.ID, func(t *testing.T) {
			t.Parallel()
			base := renderScenario(t, sc.ID, 1)
			for _, parallel := range []int{1, 4, 8} {
				if got := renderScenario(t, sc.ID, parallel); got != base {
					t.Errorf("scenario %s: audit differs (parallel=%d vs first run):\n%s",
						sc.ID, parallel, diffLine(base, got))
				}
			}
		})
	}
}

func diffLine(a, b string) string {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestAuditScenariosMatchExperiments checks each scenario's derived
// verdict agrees with the paper's model analysis — the scenarios must
// reproduce the same tables the experiments do.
func TestAuditScenariosMatchExperiments(t *testing.T) {
	t.Parallel()
	for _, sc := range Scenarios() {
		if sc.Run == nil {
			continue
		}
		sc := sc
		t.Run(sc.ID, func(t *testing.T) {
			t.Parallel()
			lg, err := sc.Run(Ctx{}, 2)
			if err != nil {
				t.Fatal(err)
			}
			a, err := provenance.Derive(lg, sc.Expected())
			if err != nil {
				t.Fatal(err)
			}
			if !a.Verdict.Decoupled {
				t.Errorf("scenario %s: measured system not decoupled: %s", sc.ID, a.Verdict)
			}
			if a.TotalObs == 0 {
				t.Errorf("scenario %s: empty ledger", sc.ID)
			}
			// Acceptance bar: every non-user component above
			// non-sensitive cites at least one observation.
			for _, e := range a.Entities {
				if e.User {
					continue
				}
				for _, c := range e.Components {
					if c.Level != "non-sensitive" && len(c.Evidence) == 0 {
						t.Errorf("scenario %s: %s %s has no evidence", sc.ID, e.Name, c.Symbol)
					}
				}
			}
		})
	}
}
