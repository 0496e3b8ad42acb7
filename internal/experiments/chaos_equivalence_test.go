package experiments

import (
	"reflect"
	"testing"
)

// The chaos half of the differential transport-equivalence suite:
// E14–E16 run twice, once on the deterministic simulator and once on
// real loopback sockets with the SAME fault plans enforced by
// nettransport's wall-clock fault layer. Injected loss draws from the
// shared per-link LossDraw stream and crash windows leave wide margins
// against timer skew, so everything semantic — availability tables,
// retry counts, knowledge tuples, coalition verdicts, the E16 fail-open
// conviction — must be identical. No table carries wall time, so the
// tables compare verbatim.

// chaosIDs are the experiments the suite compares.
var chaosIDs = map[string]bool{"E14": true, "E15": true, "E16": true}

func TestChaosTransportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos equivalence drives real sockets through crash windows; skipped in -short")
	}
	for _, exp := range All() {
		if !chaosIDs[exp.ID] {
			continue
		}
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			simRes, err := exp.Run(Ctx{})
			if err != nil {
				t.Fatalf("%s on simnet: %v", exp.ID, err)
			}
			realRes, err := exp.Run(Ctx{transport: realTransport})
			if err != nil {
				t.Fatalf("%s on real transport: %v", exp.ID, err)
			}

			if simRes.Pass != realRes.Pass {
				t.Errorf("%s: pass disagrees: sim=%v real=%v", exp.ID, simRes.Pass, realRes.Pass)
			}
			if !reflect.DeepEqual(simRes.Diffs, realRes.Diffs) {
				t.Errorf("%s: expected-vs-measured diffs disagree:\n  sim:  %v\n  real: %v", exp.ID, simRes.Diffs, realRes.Diffs)
			}
			if !reflect.DeepEqual(simRes.Tables, realRes.Tables) {
				t.Errorf("%s: availability tables disagree:\n  sim:  %+v\n  real: %+v",
					exp.ID, simRes.Tables, realRes.Tables)
			}
			tuplesEqual(t, exp.ID, simRes.Measured, realRes.Measured)
			if !reflect.DeepEqual(simRes.Verdict, realRes.Verdict) {
				t.Errorf("%s: coalition verdict disagrees:\n  sim:  %+v\n  real: %+v", exp.ID, simRes.Verdict, realRes.Verdict)
			}
			if simRes.Ledger != nil && realRes.Ledger != nil {
				if simN, realN := simRes.Ledger.Stats().Total, realRes.Ledger.Stats().Total; simN != realN {
					t.Errorf("%s: ledger admitted %d observations on sim, %d on real", exp.ID, simN, realN)
				}
			}

			// E16 on the real transport must still CONVICT the fail-open
			// misconfiguration: the retained artifacts are the fail-open
			// run, its verdict must not be decoupled, and the table's
			// fail-open row must show coupled partitions.
			if exp.ID == "E16" {
				if realRes.Verdict == nil || realRes.Verdict.Decoupled {
					t.Errorf("E16 on real transport: fail-open run still analyzes as decoupled (%+v)", realRes.Verdict)
				}
				convicted := false
				for _, tab := range realRes.Tables {
					for _, row := range tab.Rows {
						if len(row) > 0 && row[0] == "fail-open" && row[len(row)-1] != "0" {
							convicted = true
						}
					}
				}
				if !convicted {
					t.Errorf("E16 on real transport: no fail-open row with nonzero coupled partitions:\n  %+v", realRes.Tables)
				}
			}
		})
	}
}
