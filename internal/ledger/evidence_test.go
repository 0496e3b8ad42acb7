package ledger

import (
	"fmt"
	"math/rand"
	"testing"

	"decoupling/internal/core"
	"decoupling/internal/telemetry"
)

// TestDeriveTupleEvidenceMatchesDeriveTuple is the consistency
// contract: the provenance-carrying variant must report exactly the
// tuple DeriveTuple derives, component for component, in the same
// order — across random observation mixes including off-template
// extras.
func TestDeriveTupleEvidenceMatchesDeriveTuple(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	labels := []string{"", "H", "N", "X"}
	kinds := []core.Kind{core.Identity, core.Data}
	levels := []core.Level{core.NonSensitive, core.Partial, core.Sensitive}
	for trial := 0; trial < 50; trial++ {
		cls := NewClassifier()
		lg := New(cls, nil)
		for i := 0; i < 30; i++ {
			k := kinds[rng.Intn(len(kinds))]
			lvl := levels[rng.Intn(len(levels))]
			lab := labels[rng.Intn(len(labels))]
			v := fmt.Sprintf("v-%d-%d", trial, i)
			if k == core.Identity {
				cls.RegisterIdentity(v, "s", lab, lvl)
			} else {
				cls.RegisterData(v, "s", lab, lvl)
			}
			lg.Saw("ent", k, v, fmt.Sprintf("h%d", i%5))
		}
		template := core.Tuple{core.NonSensID(), core.NonSensData()}
		want := lg.DeriveTuple("ent", template)
		got := lg.DeriveTupleEvidence("ent", template)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d components with evidence, %d without", trial, len(got), len(want))
		}
		for i, ce := range got {
			if ce.Component != want[i] {
				t.Fatalf("trial %d component %d: evidence says %+v, DeriveTuple says %+v", trial, i, ce.Component, want[i])
			}
			if ce.Extra != (i >= len(template)) {
				t.Errorf("trial %d component %d: Extra = %v at index %d (template len %d)", trial, i, ce.Extra, i, len(template))
			}
			for _, o := range ce.Evidence {
				if o.Kind != ce.Component.Kind || o.Label != ce.Component.Label || o.Level != ce.Component.Level {
					t.Errorf("trial %d: evidence obs %+v does not match component %+v", trial, o, ce.Component)
				}
			}
			if ce.Component.Level > core.NonSensitive && len(ce.Evidence) == 0 {
				t.Errorf("trial %d component %d: level %v with no supporting evidence", trial, i, ce.Component.Level)
			}
		}
	}
}

// TestExtrasOrderingDeterministic is the regression test for the
// extras tie-break: off-template components must appear sorted by
// (kind, label, descending level) so repeated derivations render
// byte-identically even when labels share prefixes across kinds.
func TestExtrasOrderingDeterministic(t *testing.T) {
	t.Parallel()
	build := func(order []int) core.Tuple {
		cls := NewClassifier()
		lg := New(cls, nil)
		// Four extra axes sharing label prefixes across the two kinds.
		type reg struct {
			kind  core.Kind
			label string
			level core.Level
			value string
		}
		regs := []reg{
			{core.Identity, "A", core.Sensitive, "ia"},
			{core.Identity, "AB", core.Sensitive, "iab"},
			{core.Data, "A", core.Partial, "da"},
			{core.Data, "AB", core.Sensitive, "dab"},
		}
		for _, i := range order {
			r := regs[i]
			if r.kind == core.Identity {
				cls.RegisterIdentity(r.value, "s", r.label, r.level)
			} else {
				cls.RegisterData(r.value, "s", r.label, r.level)
			}
			lg.Saw("ent", r.kind, r.value)
		}
		return lg.DeriveTuple("ent", nil)
	}
	want := build([]int{0, 1, 2, 3})
	if len(want) != 4 {
		t.Fatalf("derived %d extras, want 4: %v", len(want), want.Symbol())
	}
	expect := core.Tuple{
		{Kind: core.Identity, Label: "A", Level: core.Sensitive},
		{Kind: core.Identity, Label: "AB", Level: core.Sensitive},
		{Kind: core.Data, Label: "A", Level: core.Partial},
		{Kind: core.Data, Label: "AB", Level: core.Sensitive},
	}
	for i, c := range want {
		if c != expect[i] {
			t.Fatalf("extras order: got %v want %v", want.Symbol(), expect.Symbol())
		}
	}
	// Admission order must not leak into the rendering.
	for _, order := range [][]int{{3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		if got := build(order); got.Symbol() != want.Symbol() {
			t.Errorf("admission order %v changed extras: %v vs %v", order, got.Symbol(), want.Symbol())
		}
	}
}

// TestSortExtrasLevelTieBreak exercises the comparator directly: if
// two extras ever share (kind, label), the higher level sorts first.
func TestSortExtrasLevelTieBreak(t *testing.T) {
	t.Parallel()
	a1 := axis{core.Data, "X"}
	// Duplicate (kind, label) axes cannot occur via DeriveTuple's map
	// today; the comparator still must order them by descending level.
	extras := []axis{a1, {core.Data, "X"}}
	levels := map[axis]core.Level{a1: core.Sensitive}
	sortExtras(extras, levels)
	if levels[extras[0]] != core.Sensitive {
		t.Errorf("level tie-break: got %v first", levels[extras[0]])
	}
}

// TestObservationRecognizedAndPhase pins the new provenance fields:
// classifier hits set Recognized, and an instrumented ledger joins each
// observation to the protocol phase open at Saw time.
func TestObservationRecognizedAndPhase(t *testing.T) {
	t.Parallel()
	cls := NewClassifier()
	cls.RegisterIdentity("alice", "alice", "", core.Sensitive)
	cls.RegisterIdentity("relay", "", "", core.NonSensitive)
	lg := New(cls, nil)
	tel := telemetry.New(true, nil)
	lg.Instrument(tel)

	lg.SawIdentity("ent", "alice")
	endPhase := tel.Phase("handshake")
	lg.SawIdentity("ent", "relay")
	lg.SawData("ent", "ciphertext:abc")
	endPhase()
	lg.SawData("ent", "late")

	obs := lg.ByObserver("ent")
	if len(obs) != 4 {
		t.Fatalf("got %d observations", len(obs))
	}
	checks := []struct {
		recognized bool
		phase      string
	}{
		{true, ""},          // alice: registered, before any phase
		{true, "handshake"}, // relay: registered non-sensitive
		{false, "handshake"},
		{false, ""},
	}
	for i, c := range checks {
		if obs[i].Recognized != c.recognized || obs[i].Phase != c.phase {
			t.Errorf("obs %d: Recognized=%v Phase=%q, want %v %q", i, obs[i].Recognized, obs[i].Phase, c.recognized, c.phase)
		}
	}
	for i, o := range obs {
		if o.Seq() == 0 {
			t.Errorf("obs %d: zero seq", i)
		}
		if i > 0 && o.Seq() <= obs[i-1].Seq() {
			t.Errorf("obs %d: seq %d not increasing", i, o.Seq())
		}
	}
}

// TestDeriveSystemEvidenceConsistent checks the system-level variant
// agrees with DeriveSystem and carries link evidence for every handle.
func TestDeriveSystemEvidenceConsistent(t *testing.T) {
	t.Parallel()
	cls := NewClassifier()
	cls.RegisterIdentity("alice", "alice", "", core.Sensitive)
	cls.RegisterData("query", "alice", "", core.Sensitive)
	lg := New(cls, nil)
	lg.SawIdentity("Proxy", "alice", "h1")
	lg.SawData("Proxy", "blob", "h1", "h2")
	lg.SawData("Server", "query", "h2")

	expected := &core.System{
		Name: "toy",
		Entities: []core.Entity{
			{Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()}},
			{Name: "Proxy", Knows: core.Tuple{core.SensID(), core.NonSensData()}},
			{Name: "Server", Knows: core.Tuple{core.NonSensID(), core.SensData()}},
		},
	}
	sysEv := lg.DeriveSystemEvidence(expected)
	plain := lg.DeriveSystem(expected)
	for i, e := range plain.Entities {
		ee := sysEv.Entities[i]
		if ee.Name != e.Name || !ee.Tuple.Equal(e.Knows) {
			t.Errorf("entity %s: evidence tuple %s != derived %s", e.Name, ee.Tuple.Symbol(), e.Knows.Symbol())
		}
	}
	proxy := sysEv.Entities[1]
	if len(proxy.Links) != 2 {
		t.Fatalf("proxy link evidence: %d handles, want 2", len(proxy.Links))
	}
	if proxy.Links[0].Handle != "h1" || len(proxy.Links[0].Evidence) != 2 {
		t.Errorf("h1 evidence: %+v", proxy.Links[0])
	}
	if proxy.Links[1].Handle != "h2" || len(proxy.Links[1].Evidence) != 1 {
		t.Errorf("h2 evidence: %+v", proxy.Links[1])
	}
	if user := sysEv.Entities[0]; len(user.Components) != 0 || !user.User {
		t.Errorf("user entity must carry modeled tuple, no measured components: %+v", user)
	}
}
