package pgpp

import (
	"crypto/rsa"
	mrand "math/rand"
	"sync"
	"testing"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/ledger"
)

// testKey returns the gateway key the package's tests share, generated
// once: signing only reads it.
var testKey = sync.OnceValue(func() *rsa.PrivateKey {
	key, err := blindrsa.GenerateKey(1024)
	if err != nil {
		panic(err)
	}
	return key
})

func smallConfig(pgppMode bool, policy ShufflePolicy) SimConfig {
	return SimConfig{
		Users: 10, Cells: 9, Steps: 60, SessionLen: 10, EpochLen: 30,
		Policy: policy, PGPP: pgppMode, Seed: 7, GatewayKey: testKey(), Prepaid: 8,
	}
}

// TestBaselineAttachAndPage runs the baseline with no gateway: devices
// authenticate by IMSI alone.
func TestBaselineAttachAndPage(t *testing.T) {
	nc := NewCore(false, nil, nil)
	rng := mrand.New(mrand.NewSource(1))
	d, err := NewDevice("alice", ShuffleNever, nil, nc, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Move(4, 1); err != nil {
		t.Fatal(err)
	}
	cell, err := nc.Page(d.NetID())
	if err != nil || cell != 4 {
		t.Errorf("Page = %d, %v", cell, err)
	}
}

func TestBaselineRejectsUnknownIMSI(t *testing.T) {
	nc := NewCore(false, nil, nil)
	if err := nc.Attach("imsi-unknown", nil, 0, 0); err != ErrUnknownSubscriber {
		t.Errorf("err = %v", err)
	}
}

func TestPGPPAttachRequiresValidToken(t *testing.T) {
	gw := NewGateway(testKey(), nil)
	nc := NewCore(true, gw.PublicKey(), nil)
	if err := nc.Attach("tmp-1", nil, 0, 0); err != ErrBadToken {
		t.Errorf("nil token err = %v", err)
	}
	forged := &AttachToken{Serial: []byte("serial"), Sig: make([]byte, 128)}
	if err := nc.Attach("tmp-1", forged, 0, 0); err != ErrBadToken {
		t.Errorf("forged token err = %v", err)
	}
}

func TestPGPPTokenDoubleSpendRejected(t *testing.T) {
	gw := NewGateway(testKey(), nil)
	nc := NewCore(true, gw.PublicKey(), nil)
	rng := mrand.New(mrand.NewSource(1))
	d, err := NewDevice("alice", ShufflePerAttach, gw, nc, rng, 2)
	if err != nil {
		t.Fatal(err)
	}
	tok := d.tokens[0]
	if err := nc.Attach("tmp-a", tok, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := nc.Attach("tmp-b", tok, 1, 1); err != ErrTokenReused {
		t.Errorf("double spend err = %v", err)
	}
}

func TestBalanceEnforced(t *testing.T) {
	gw := NewGateway(testKey(), nil)
	nc := NewCore(true, gw.PublicKey(), nil)
	rng := mrand.New(mrand.NewSource(1))
	d, err := NewDevice("alice", ShufflePerAttach, gw, nc, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(0, 0); err != nil {
		t.Fatal(err)
	}
	// Balance exhausted: next attach must fail at purchase time.
	if err := d.Attach(1, 1); err != ErrNoBalance {
		t.Errorf("err = %v", err)
	}
}

func TestMoveRequiresAttach(t *testing.T) {
	nc := NewCore(false, nil, nil)
	if err := nc.Update("ghost", 1, 0); err != ErrNotAttached {
		t.Errorf("err = %v", err)
	}
}

func TestShufflePolicies(t *testing.T) {
	cases := []struct {
		policy       ShufflePolicy
		wantDistinct func(attaches int) int
	}{
		{ShuffleNever, func(int) int { return 1 }},
		{ShufflePerAttach, func(n int) int { return n }},
	}
	for _, c := range cases {
		gw := NewGateway(testKey(), nil)
		nc := NewCore(true, gw.PublicKey(), nil)
		rng := mrand.New(mrand.NewSource(1))
		d, err := NewDevice("alice", c.policy, gw, nc, rng, 10)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i := 0; i < 5; i++ {
			if err := d.Attach(i, i*10); err != nil {
				t.Fatal(err)
			}
			seen[d.NetID()] = true
		}
		if got, want := len(seen), c.wantDistinct(5); got != want {
			t.Errorf("policy %v: %d distinct pseudonyms, want %d", c.policy, got, want)
		}
	}
}

func TestShuffleDailyRotatesPerEpoch(t *testing.T) {
	gw := NewGateway(testKey(), nil)
	nc := NewCore(true, gw.PublicKey(), nil)
	rng := mrand.New(mrand.NewSource(1))
	d, err := NewDevice("alice", ShuffleDaily, gw, nc, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	d.EpochLen = 100
	seen := map[string]bool{}
	for _, step := range []int{0, 30, 60, 90, 110, 150, 210} {
		if err := d.Attach(0, step); err != nil {
			t.Fatal(err)
		}
		seen[d.NetID()] = true
	}
	// Steps fall in epochs 0,0,0,0,1,1,2 -> 3 pseudonyms.
	if len(seen) != 3 {
		t.Errorf("daily shuffle produced %d pseudonyms, want 3", len(seen))
	}
}

// TestTrackingAccuracyShape is the E5 headline: permanent identifiers
// are fully trackable; per-attach shuffling collapses trackability.
func TestTrackingAccuracyShape(t *testing.T) {
	run := func(pgppMode bool, policy ShufflePolicy) float64 {
		res, err := RunSim(smallConfig(pgppMode, policy), nil)
		if err != nil {
			t.Fatal(err)
		}
		return TrackingAccuracy(res.Core.Log(), res.NetIDOwner)
	}
	baseline := run(false, ShuffleNever)
	if baseline != 1.0 {
		t.Errorf("baseline tracking accuracy = %.3f, want 1.0", baseline)
	}
	static := run(true, ShuffleNever)
	if static != 1.0 {
		t.Errorf("PGPP with static pseudonym accuracy = %.3f, want 1.0 (trajectory still linkable)", static)
	}
	daily := run(true, ShuffleDaily)
	perAttach := run(true, ShufflePerAttach)
	if !(perAttach < daily && daily < 1.0) {
		t.Errorf("accuracy ordering violated: per-attach %.3f, daily %.3f, baseline 1.0", perAttach, daily)
	}
	// With 60 steps / 10-step sessions, per-attach should be ~1/6.
	if perAttach > 0.25 {
		t.Errorf("per-attach accuracy = %.3f, want <= 0.25", perAttach)
	}
}

// TestDecouplingTable reproduces the paper's §3.2.3 table, including
// the ▲_H / ▲_N identity decomposition.
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	if _, err := RunSim(smallConfig(true, ShufflePerAttach), lg); err != nil {
		t.Fatal(err)
	}
	expected := core.PGPP()
	measured := lg.DeriveSystem(expected)
	if diffs := core.CompareTuples(expected, measured); len(diffs) != 0 {
		t.Errorf("measured table diverges from paper:\n%s", core.RenderComparison(expected, measured))
		for _, d := range diffs {
			t.Log(d)
		}
	}
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Decoupled {
		t.Errorf("measured PGPP not decoupled: %s", v)
	}
}

// TestBaselineCoupled: the pre-PGPP architecture measured — the core
// holds (▲_H, ▲_N, ●) and is a single point of surveillance.
func TestBaselineCoupled(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	if _, err := RunSim(smallConfig(false, ShuffleNever), lg); err != nil {
		t.Fatal(err)
	}
	tuple := lg.DeriveTuple(CoreName, core.Tuple{
		core.NonSensID("H"), core.NonSensID("N"), core.NonSensData(),
	})
	want := core.Tuple{core.SensID("H"), core.SensID("N"), core.SensData()}
	if !tuple.Equal(want) {
		t.Errorf("baseline NGC tuple = %s, want %s", tuple.Symbol(), want.Symbol())
	}
	if !tuple.Coupled() {
		t.Error("baseline NGC should be coupled")
	}
}

// TestGatewayCoreCollusionCannotLink: blind tokens leave no handle
// chain between billing records and attach records.
func TestGatewayCoreCollusionCannotLink(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	if _, err := RunSim(smallConfig(true, ShufflePerAttach), lg); err != nil {
		t.Fatal(err)
	}
	res := adversary.LinkSubjects(lg.Observations(), []string{GatewayName, CoreName})
	if rate := adversary.LinkageRate(res); rate != 0 {
		t.Errorf("GW+NGC collusion linked %.0f%% of users; blind tokens should prevent this", rate*100)
	}
}

// TestPagingStillWorksUnderPGPP: the functionality claim — connectivity
// (reaching a device) survives the decoupling.
func TestPagingStillWorksUnderPGPP(t *testing.T) {
	res, err := RunSim(smallConfig(true, ShufflePerAttach), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Devices {
		cell, err := res.Core.Page(d.NetID())
		if err != nil {
			t.Fatalf("paging %s: %v", d.Account, err)
		}
		trace := res.Traces[d.Account]
		if got := trace[len(trace)-1]; got != cell {
			t.Errorf("paged %s to cell %d, truth %d", d.Account, cell, got)
		}
	}
}

func TestAnonymitySetGrowsWithShuffling(t *testing.T) {
	// Under per-attach shuffling, the core's view of "who is identity X"
	// is a fresh pseudonym shared with nobody — the anonymity set for
	// any given event is the full user population (all pseudonyms are
	// exchangeable). We approximate by checking pseudonym counts exceed
	// the user count substantially.
	res, err := RunSim(smallConfig(true, ShufflePerAttach), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NetIDOwner) < 3*res.Config.Users {
		t.Errorf("pseudonym count %d too small for %d users", len(res.NetIDOwner), res.Config.Users)
	}
}

// TestBaselineSimGeneratesNoKey: a baseline run builds no gateway, so
// it runs without a signing key; a PGPP run without one is refused.
func TestBaselineSimGeneratesNoKey(t *testing.T) {
	cfg := smallConfig(false, ShuffleNever)
	cfg.GatewayKey = nil
	if _, err := RunSim(cfg, nil); err != nil {
		t.Fatal(err)
	}
	cfg.PGPP = true
	if _, err := RunSim(cfg, nil); err == nil {
		t.Error("PGPP run without a gateway key built a gateway")
	}
}

func TestRunSimRejectsDegenerateConfig(t *testing.T) {
	if _, err := RunSim(SimConfig{}, nil); err == nil {
		t.Error("degenerate config accepted")
	}
}

func BenchmarkSimPGPP(b *testing.B) {
	cfg := smallConfig(true, ShufflePerAttach)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSim(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
