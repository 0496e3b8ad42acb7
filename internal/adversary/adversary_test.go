package adversary

import (
	"fmt"
	"math"
	mrand "math/rand"
	"testing"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

// mathrandNew returns a seeded deterministic RNG for attack tests.
func mathrandNew(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

// buildODoHStyleLedger creates the observation pattern of a proxy/target
// split: proxy sees alice's identity + ciphertext, target sees the query
// plaintext; the two legs share a handle only between proxy and target.
func buildODoHStyleLedger() *ledger.Ledger {
	cls := ledger.NewClassifier()
	cls.RegisterIdentity("10.0.0.7", "alice", "", core.Sensitive)
	cls.RegisterData("secret.example.com.", "alice", "", core.Sensitive)
	lg := ledger.New(cls, nil)
	leg := ledger.ConnHandle("proxy", "target", "txn1")
	lg.SawIdentity("Proxy", "10.0.0.7", "client-leg")
	lg.SawData("Proxy", "ciphertext-xyz", "client-leg", leg)
	lg.SawIdentity("Target", "proxy-addr", leg)
	lg.SawData("Target", "secret.example.com.", leg)
	return lg
}

func TestLinkSubjectsRequiresBothSides(t *testing.T) {
	lg := buildODoHStyleLedger()
	// Proxy alone: has identity, no sensitive data.
	res := LinkSubjects(lg.Observations(), []string{"Proxy"})
	if LinkageRate(res) != 0 {
		t.Errorf("proxy alone linked: %+v", res)
	}
	// Target alone: has data but never a sensitive identity -> no
	// subject rows at all (no identity side).
	res = LinkSubjects(lg.Observations(), []string{"Target"})
	if len(res) != 0 {
		t.Errorf("target alone produced results: %+v", res)
	}
}

func TestLinkSubjectsCoalitionJoinsViaHandles(t *testing.T) {
	lg := buildODoHStyleLedger()
	res := LinkSubjects(lg.Observations(), []string{"Proxy", "Target"})
	if len(res) != 1 || !res[0].Linked {
		t.Fatalf("coalition failed to link: %+v", res)
	}
	if res[0].Subject != "alice" || res[0].IdentityValue != "10.0.0.7" || res[0].DataValue != "secret.example.com." {
		t.Errorf("result = %+v", res[0])
	}
}

// TestLinkSubjectsBrokenChain: if the proxy and target legs share no
// handle (e.g. re-encryption produced fresh bytes and no shared
// connection), even a full coalition cannot join.
func TestLinkSubjectsBrokenChain(t *testing.T) {
	cls := ledger.NewClassifier()
	cls.RegisterIdentity("10.0.0.7", "alice", "", core.Sensitive)
	cls.RegisterData("secret.example.com.", "alice", "", core.Sensitive)
	lg := ledger.New(cls, nil)
	lg.SawIdentity("Signer", "10.0.0.7", "withdrawal-17")
	lg.SawData("Verifier", "secret.example.com.", "deposit-93")
	res := LinkSubjects(lg.Observations(), []string{"Signer", "Verifier"})
	if LinkageRate(res) != 0 {
		t.Errorf("unlinkable observations were linked: %+v", res)
	}
}

// TestSingleEntitySessionLinks: the VPN failure mode — one entity sees
// identity and data on the same session, so its own records share a
// handle and link without any collusion.
func TestSingleEntitySessionLinks(t *testing.T) {
	cls := ledger.NewClassifier()
	cls.RegisterIdentity("10.0.0.7", "alice", "", core.Sensitive)
	cls.RegisterData("secret.example.com.", "alice", "", core.Sensitive)
	lg := ledger.New(cls, nil)
	session := ledger.ConnHandle("10.0.0.7", "vpn")
	lg.SawIdentity("VPN", "10.0.0.7", session)
	lg.SawData("VPN", "secret.example.com.", session)
	res := LinkSubjects(lg.Observations(), []string{"VPN"})
	if LinkageRate(res) != 1 {
		t.Errorf("coupled entity failed to link its session records: %+v", res)
	}
	// Rows from unrelated sessions do not merge just by cohabiting one
	// database: a second subject with disjoint handles stays unlinked to
	// alice's data even though the same entity holds all rows.
	cls.RegisterIdentity("10.0.0.8", "bob", "", core.Sensitive)
	lg.SawIdentity("VPN", "10.0.0.8", ledger.ConnHandle("10.0.0.8", "vpn"))
	res = LinkSubjects(lg.Observations(), []string{"VPN"})
	for _, r := range res {
		if r.Subject == "bob" && r.Linked {
			t.Errorf("bob linked without any data observation: %+v", r)
		}
	}
}

func TestPartialDataCountsForLinkage(t *testing.T) {
	cls := ledger.NewClassifier()
	cls.RegisterIdentity("10.0.0.7", "alice", "", core.Sensitive)
	cls.RegisterData("example.com.", "alice", "", core.Partial)
	lg := ledger.New(cls, nil)
	lg.SawIdentity("R1", "10.0.0.7", "conn")
	lg.SawData("R2", "example.com.", "conn")
	res := LinkSubjects(lg.Observations(), []string{"R1", "R2"})
	if LinkageRate(res) != 1 {
		t.Errorf("partial data not linked: %+v", res)
	}
}

func TestMultiSubjectLinkage(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	for i := 0; i < 10; i++ {
		subj := fmt.Sprintf("user%d", i)
		addr := fmt.Sprintf("10.0.0.%d", i)
		site := fmt.Sprintf("site%d.test.", i)
		cls.RegisterIdentity(addr, subj, "", core.Sensitive)
		cls.RegisterData(site, subj, "", core.Sensitive)
		lg.SawIdentity("Relay1", addr, fmt.Sprintf("conn%d", i))
		// Only even subjects have a linkable chain.
		if i%2 == 0 {
			lg.SawData("Relay2", site, fmt.Sprintf("conn%d", i))
		} else {
			lg.SawData("Relay2", site, fmt.Sprintf("other%d", i))
		}
	}
	res := LinkSubjects(lg.Observations(), []string{"Relay1", "Relay2"})
	if got := LinkageRate(res); got != 0.5 {
		t.Errorf("linkage rate = %v, want 0.5", got)
	}
}

func TestTimingCorrelateFIFO(t *testing.T) {
	var entries, exits []Event
	for i := 0; i < 20; i++ {
		s := fmt.Sprintf("u%d", i)
		entries = append(entries, Event{Time: time.Duration(i) * time.Millisecond, Subject: s})
		exits = append(exits, Event{Time: time.Duration(100+i) * time.Millisecond, Subject: s})
	}
	correct, total := TimingCorrelate(entries, exits)
	if correct != 20 || total != 20 {
		t.Errorf("FIFO relay: correct=%d total=%d, want 20/20", correct, total)
	}
}

func TestTimingCorrelateShuffledBatch(t *testing.T) {
	// All messages exit at the same instant but in permuted order: the
	// rank-order attack should degrade (can't be perfect for a
	// nontrivial derangement).
	var entries, exits []Event
	perm := []int{3, 1, 4, 0, 2}
	for i := 0; i < 5; i++ {
		entries = append(entries, Event{Time: time.Duration(i) * time.Millisecond, Subject: fmt.Sprintf("u%d", i)})
	}
	for _, p := range perm {
		exits = append(exits, Event{Time: 100 * time.Millisecond, Subject: fmt.Sprintf("u%d", p)})
	}
	correct, total := TimingCorrelate(entries, exits)
	if total != 5 {
		t.Fatalf("total = %d", total)
	}
	if correct >= 5 {
		t.Errorf("shuffled batch fully correlated (correct=%d)", correct)
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy(map[string]int{"a": 1, "b": 1}); math.Abs(got-1) > 1e-9 {
		t.Errorf("Entropy(uniform 2) = %v, want 1", got)
	}
	if got := Entropy(map[string]int{"a": 4}); got != 0 {
		t.Errorf("Entropy(point mass) = %v, want 0", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("Entropy(nil) = %v", got)
	}
	u8 := map[string]int{}
	for i := 0; i < 8; i++ {
		u8[fmt.Sprint(i)] = 3
	}
	if got := Entropy(u8); math.Abs(got-3) > 1e-9 {
		t.Errorf("Entropy(uniform 8) = %v, want 3", got)
	}
}

func TestNormalizedEntropy(t *testing.T) {
	u := map[string]int{"a": 5, "b": 5, "c": 5, "d": 5}
	if got := NormalizedEntropy(u); math.Abs(got-1) > 1e-9 {
		t.Errorf("NormalizedEntropy(uniform) = %v", got)
	}
	skew := map[string]int{"a": 97, "b": 1, "c": 1, "d": 1}
	if got := NormalizedEntropy(skew); got > 0.5 {
		t.Errorf("NormalizedEntropy(skewed) = %v, want < 0.5", got)
	}
	if got := NormalizedEntropy(map[string]int{"a": 3}); got != 0 {
		t.Errorf("NormalizedEntropy(single) = %v", got)
	}
}

func TestLinkageRateEmpty(t *testing.T) {
	if LinkageRate(nil) != 0 {
		t.Error("empty results should rate 0")
	}
}

func BenchmarkLinkSubjects(b *testing.B) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	for i := 0; i < 500; i++ {
		subj := fmt.Sprintf("user%d", i)
		addr := fmt.Sprintf("10.0.%d.%d", i/256, i%256)
		site := fmt.Sprintf("site%d.test.", i)
		cls.RegisterIdentity(addr, subj, "", core.Sensitive)
		cls.RegisterData(site, subj, "", core.Sensitive)
		lg.SawIdentity("R1", addr, fmt.Sprintf("conn%d", i))
		lg.SawData("R2", site, fmt.Sprintf("conn%d", i))
	}
	obs := lg.Observations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LinkSubjects(obs, []string{"R1", "R2"})
	}
}

// TestStatisticalDisclosure: over many observed rounds, alice's true
// partner rises to the top of the scores even though every individual
// round hides the correspondence.
func TestStatisticalDisclosure(t *testing.T) {
	rng := mathrandNew(99)
	var rounds []Round
	receivers := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
	for i := 0; i < 400; i++ {
		var r Round
		aliceIn := i%2 == 0
		if aliceIn {
			r.Senders = append(r.Senders, "alice")
			r.Receivers = append(r.Receivers, "bob") // alice always writes bob
		}
		// Background: 3 random senders to random receivers.
		for j := 0; j < 3; j++ {
			r.Senders = append(r.Senders, fmt.Sprintf("noise%d", rng.Intn(20)))
			r.Receivers = append(r.Receivers, receivers[rng.Intn(len(receivers))])
		}
		rounds = append(rounds, r)
	}
	scored := StatisticalDisclosure(rounds, "alice")
	if len(scored) == 0 {
		t.Fatal("no scores")
	}
	if scored[0].Receiver != "bob" {
		t.Errorf("top suspect = %s (%.3f), want bob", scored[0].Receiver, scored[0].Score)
	}
	if scored[0].Score < 0.5 {
		t.Errorf("bob's score = %.3f, expected strong signal", scored[0].Score)
	}
}

// TestStatisticalDisclosureDefeatedByConstantCover: if the target sends
// in EVERY round (constant-rate cover traffic), their real partner is
// statistically indistinguishable from the background.
func TestStatisticalDisclosureDefeatedByConstantCover(t *testing.T) {
	rng := mathrandNew(7)
	receivers := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
	var rounds []Round
	for i := 0; i < 400; i++ {
		var r Round
		// Alice participates every round (cover traffic); her real
		// message goes to bob only occasionally, chaff otherwise.
		r.Senders = append(r.Senders, "alice")
		if i%8 == 0 {
			r.Receivers = append(r.Receivers, "bob")
		} else {
			r.Receivers = append(r.Receivers, receivers[rng.Intn(len(receivers))])
		}
		for j := 0; j < 3; j++ {
			r.Senders = append(r.Senders, fmt.Sprintf("noise%d", rng.Intn(20)))
			r.Receivers = append(r.Receivers, receivers[rng.Intn(len(receivers))])
		}
		rounds = append(rounds, r)
	}
	scored := StatisticalDisclosure(rounds, "alice")
	// With the target in every round, P(receiver | target) == P(receiver),
	// so every score collapses to ~0.
	for _, s := range scored {
		if s.Score > 0.05 {
			t.Errorf("receiver %s scored %.3f despite constant cover", s.Receiver, s.Score)
		}
	}
}

func TestStatisticalDisclosureEmpty(t *testing.T) {
	if got := StatisticalDisclosure(nil, "alice"); got != nil {
		t.Errorf("scores for no rounds: %v", got)
	}
	rounds := []Round{{Senders: []string{"carol"}, Receivers: []string{"r"}}}
	if got := StatisticalDisclosure(rounds, "alice"); got != nil {
		t.Errorf("scores for absent target: %v", got)
	}
}
