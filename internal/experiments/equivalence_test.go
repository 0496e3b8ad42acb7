package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/nettransport"
	"decoupling/internal/provenance"
	"decoupling/internal/simnet"
	"decoupling/internal/transport"
)

// The differential transport-equivalence suite: every table experiment
// runs twice, once over the deterministic simulator and once over real
// loopback TCP sockets, and everything the privacy analysis concludes —
// derived knowledge tuples, coalition verdicts, expected-vs-measured
// diffs — must be semantically identical. Delivery order, wall
// latencies, and Rand interleavings legitimately differ between the two
// stacks; what an observer *knows* must not. A divergence here means
// either the real transport leaks observations the simulator doesn't
// model, or the analysis was quietly depending on simulator scheduling.

// realTransport is the factory the suite injects: real loopback TCP,
// whose reliable delivery the equivalence contract requires.
func realTransport(seed int64) transport.Runner {
	return nettransport.New(nettransport.Options{Seed: seed})
}

// tuplesEqual compares two measured systems symmetrically: each is
// diffed against the other as the expectation, so extra knowledge on
// either side surfaces.
func tuplesEqual(t *testing.T, id string, sim, real *core.System) {
	t.Helper()
	if sim == nil || real == nil {
		if sim != real {
			t.Fatalf("%s: measured system nil on one transport only (sim=%v real=%v)", id, sim != nil, real != nil)
		}
		return
	}
	if diffs := core.CompareTuples(sim, real); len(diffs) != 0 {
		t.Errorf("%s: real transport measured different knowledge than simulator:\n  %v", id, diffs)
	}
	if diffs := core.CompareTuples(real, sim); len(diffs) != 0 {
		t.Errorf("%s: simulator measured different knowledge than real transport:\n  %v", id, diffs)
	}
}

func TestTransportEquivalence(t *testing.T) {
	for _, exp := range All() {
		if exp.ID > "E9" || len(exp.ID) > 2 { // E1..E9: the paper-table experiments
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
			tuplesEqual(t, exp.ID, simRes.Measured, realRes.Measured)
			if !reflect.DeepEqual(simRes.Verdict, realRes.Verdict) {
				t.Errorf("%s: coalition verdict disagrees:\n  sim:  %+v\n  real: %+v", exp.ID, simRes.Verdict, realRes.Verdict)
			}
			if simRes.Ledger != nil && realRes.Ledger != nil {
				if simN, realN := simRes.Ledger.Stats().Total, realRes.Ledger.Stats().Total; simN != realN {
					t.Errorf("%s: ledger admitted %d observations on sim, %d on real", exp.ID, simN, realN)
				}
			}
		})
	}
}

// equivalenceScenario drives the audit-shaped mixnet cascade (3 mixes,
// threshold 4, 8 senders) over an arbitrary transport with a nil-clock
// ledger. The nil clock matters: provenance ordering uses observation
// time as a tie-break, and virtual-vs-wall timestamps are exactly the
// kind of nonsemantic difference this suite must ignore.
func equivalenceScenario(t *testing.T, net transport.Runner) *ledger.Ledger {
	t.Helper()
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	for i := 1; i <= 3; i++ {
		cls.RegisterIdentity(fmt.Sprintf("mix%d", i), "", "", core.NonSensitive)
	}
	c, err := newCascade(net, lg, 3, 4, false, nil, nil)
	if err != nil {
		t.Fatalf("cascade: %v", err)
	}
	for i := 0; i < 8; i++ {
		from, msg := registerSender(cls, i)
		if err := c.send(net, from, nil, msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	net.Run()
	if got := len(c.rcv.Inbox()); got != 8 {
		t.Fatalf("delivered %d of 8 messages", got)
	}
	return lg
}

// timestampRe strips the only legitimately transport-dependent field in
// a provenance report: evidence timestamps.
var timestampRe = regexp.MustCompile(`t=\S+`)

// TestAuditReportEquivalence is the strongest form of the differential
// check: the full canonical provenance report — derived tuples,
// evidence chains, handle aliases, linkage partitions — rendered from a
// run on each transport must match byte-for-byte after timestamp
// normalization. The canonicalization layer (1-WL handle refinement,
// content ordering) exists precisely so nondeterministic delivery
// order cannot change what an audit says; this test holds it to that.
func TestAuditReportEquivalence(t *testing.T) {
	report := func(net transport.Runner) string {
		defer net.Close()
		lg := equivalenceScenario(t, net)
		audit, err := provenance.Derive(lg, core.Mixnet(3))
		if err != nil {
			t.Fatalf("derive: %v", err)
		}
		var buf bytes.Buffer
		if err := provenance.WriteReport(&buf, audit); err != nil {
			t.Fatalf("report: %v", err)
		}
		return timestampRe.ReplaceAllString(buf.String(), "t=·")
	}

	simReport := report(simnet.New(7))
	realReport := report(realTransport(7))
	if simReport != realReport {
		t.Errorf("audit reports diverge between transports:\n--- simnet ---\n%s\n--- real ---\n%s", simReport, realReport)
	}
}
