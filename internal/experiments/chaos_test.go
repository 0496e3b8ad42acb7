package experiments

import (
	"errors"
	"testing"

	"decoupling/internal/core"
	"decoupling/internal/dnswire"
	"decoupling/internal/provenance"
	"decoupling/internal/resilience"
)

// TestFailClosedInvariantUnderTotalOutage is the acceptance test for
// the degradation policy: with every proxy dead, every ODoH query must
// error wrapping resilience.ErrExhausted, and the ledger must stay
// EMPTY — a fail-closed client leaks nothing to anyone while failing,
// so the measured system still analyzes as decoupled.
func TestFailClosedInvariantUnderTotalOutage(t *testing.T) {
	s, err := newODoHStack(nil, nil, auditDNSClients)
	if err != nil {
		t.Fatal(err)
	}
	dead := func(string, []byte) ([]byte, error) {
		return nil, errors.New("proxy unreachable")
	}
	for i := 0; i < auditDNSClients; i++ {
		_, qerr := s.resilient(i, resilience.Default("odoh"), dead, dead).Query(dnsName(i), dnswire.TypeA)
		if !errors.Is(qerr, resilience.ErrExhausted) {
			t.Fatalf("client %d: err = %v, want ErrExhausted", i, qerr)
		}
	}

	lg := s.lg
	if st := lg.Stats(); st.Total != 0 {
		t.Fatalf("fail-closed outage leaked %d observations", st.Total)
	}
	expected := core.ObliviousDNS()
	measured := lg.DeriveSystem(expected)
	for _, e := range measured.Entities {
		if e.User {
			continue
		}
		for _, c := range e.Knows {
			if c.Level > core.NonSensitive {
				t.Errorf("%s learned a %v component during a total outage", e.Name, c.Level)
			}
		}
	}
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Decoupled {
		t.Errorf("measured system after fail-closed outage: %s, want decoupled", &v)
	}
}

// TestFailOpenFallbackIsFlaggedCoupled pins the E16 detection invariant
// independently of the experiment's own pass accounting: a fail-open
// run's ledger must flip the Resolver tuple, break the verdict, and
// yield at least one COUPLED provenance partition.
func TestFailOpenFallbackIsFlaggedCoupled(t *testing.T) {
	lg, okHealthy, fallbacks, exhaustions, err := e16Run(Ctx{}, resilience.FailOpen)
	if err != nil {
		t.Fatal(err)
	}
	if okHealthy != 10 || fallbacks != 10 || exhaustions != 0 {
		t.Fatalf("healthy/fallbacks/exhaustions = %d/%d/%d, want 10/10/0", okHealthy, fallbacks, exhaustions)
	}
	expected := core.ObliviousDNS()
	measured := lg.DeriveSystem(expected)
	if diffs := core.CompareTuples(expected, measured); len(diffs) == 0 {
		t.Error("fail-open run matches the paper's table; the fallback should have flipped the Resolver tuple")
	}
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decoupled {
		t.Errorf("fail-open verdict = %s, want NOT decoupled", &v)
	}
	audit, err := provenance.Derive(lg, expected)
	if err != nil {
		t.Fatal(err)
	}
	coupled := 0
	for _, part := range audit.Partitions {
		if part.Coupled {
			coupled++
		}
	}
	if coupled == 0 {
		t.Error("provenance audit found no coupled partition in the fail-open ledger")
	}
}

// TestChaosFracDeterministicAndUniform: the injected-failure stream is
// a pure function of (seed, n) and roughly uniform on [0, 1).
func TestChaosFracDeterministicAndUniform(t *testing.T) {
	var sum float64
	const n = 4096
	for i := uint64(0); i < n; i++ {
		v := chaosFrac(0xABCD, i)
		if v != chaosFrac(0xABCD, i) {
			t.Fatal("chaosFrac not deterministic")
		}
		if v < 0 || v >= 1 {
			t.Fatalf("chaosFrac out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestFlakyLinkIsDeterministic(t *testing.T) {
	count := func() int {
		l := &flakyLink{rate: 0.3, seed: 0xBEEF}
		for i := 0; i < 500; i++ {
			l.fail()
		}
		_, injected := l.stats()
		return injected
	}
	a, b := count(), count()
	if a != b {
		t.Fatalf("injected counts differ: %d vs %d", a, b)
	}
	if a < 100 || a > 200 {
		t.Errorf("injected %d of 500 at rate 0.3", a)
	}
	zero := &flakyLink{rate: 0, seed: 1}
	for i := 0; i < 100; i++ {
		if zero.fail() {
			t.Fatal("rate-0 link injected a failure")
		}
	}
}

// TestChaosExperimentsAreDeterministic: the chaos reports must be
// byte-identical across runs — the property CI's cmp check relies on.
func TestChaosExperimentsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos determinism check skipped in -short mode")
	}
	for _, exp := range []struct {
		id string
		fn ExperimentFunc
	}{
		{"E14", E14ChaosAvailability},
		{"E15", E15ChaosFailover},
		{"E16", E16ChaosFailOpen},
	} {
		r1, err := exp.fn(Ctx{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := exp.fn(Ctx{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Render() != r2.Render() {
			t.Errorf("%s report differs between runs:\n--- first ---\n%s\n--- second ---\n%s", exp.id, r1.Render(), r2.Render())
		}
	}
}
