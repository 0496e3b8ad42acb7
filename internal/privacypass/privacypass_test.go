package privacypass

import (
	"crypto/rsa"
	"fmt"
	"sync"
	"testing"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/dcrypto/token"
	"decoupling/internal/ledger"
)

// testKey returns the signing key the package's tests share, generated
// once: signing only reads it.
var testKey = sync.OnceValue(func() *rsa.PrivateKey {
	key, err := blindrsa.GenerateKey(1024)
	if err != nil {
		panic(err)
	}
	return key
})

func setup(t testing.TB, lg *ledger.Ledger) (*Issuer, *Origin, *Client) {
	t.Helper()
	is := NewIssuer("issuer.example", testKey(), lg)
	is.Enroll("client-1")
	origin := NewOrigin("origin.example", "issuer.example", is.PublicKey(), lg)
	return is, origin, NewClient("client-1", is.PublicKey())
}

func TestIssueAndRedeem(t *testing.T) {
	is, origin, client := setup(t, nil)
	ch, err := origin.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	tok, err := client.ObtainToken(ch, is)
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Redeem("exit-7", tok, "/private/resource"); err != nil {
		t.Fatal(err)
	}
	if origin.Served() != 1 {
		t.Errorf("served = %d", origin.Served())
	}
}

func TestDoubleRedeemRejected(t *testing.T) {
	is, origin, client := setup(t, nil)
	ch, _ := origin.Challenge()
	tok, err := client.ObtainToken(ch, is)
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Redeem("exit-1", tok, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := origin.Redeem("exit-2", tok, "/b"); err != token.ErrSpent {
		t.Errorf("second redeem error = %v", err)
	}
}

func TestUnenrolledClientRejected(t *testing.T) {
	is, origin, _ := setup(t, nil)
	outsider := NewClient("stranger", is.PublicKey())
	ch, _ := origin.Challenge()
	if _, err := outsider.ObtainToken(ch, is); err != ErrNotAuthenticated {
		t.Errorf("unenrolled issuance error = %v", err)
	}
}

func TestRateLimit(t *testing.T) {
	is, origin, client := setup(t, nil)
	is.PerClientLimit = 2
	for i := 0; i < 2; i++ {
		ch, _ := origin.Challenge()
		if _, err := client.ObtainToken(ch, is); err != nil {
			t.Fatal(err)
		}
	}
	ch, _ := origin.Challenge()
	if _, err := client.ObtainToken(ch, is); err != ErrRateLimited {
		t.Errorf("over-limit issuance error = %v", err)
	}
	if is.Issued("client-1") != 2 {
		t.Errorf("issued = %d", is.Issued("client-1"))
	}
}

func TestForeignChallengeRejected(t *testing.T) {
	is, origin, client := setup(t, nil)
	other := NewOrigin("other.example", "issuer.example", is.PublicKey(), nil)
	foreignCh, _ := other.Challenge()
	tok, err := client.ObtainToken(foreignCh, is)
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Redeem("exit", tok, "/x"); err != ErrWrongChallenge {
		t.Errorf("foreign challenge error = %v", err)
	}
}

func TestTamperedTokenRejected(t *testing.T) {
	is, origin, client := setup(t, nil)
	ch, _ := origin.Challenge()
	tok, err := client.ObtainToken(ch, is)
	if err != nil {
		t.Fatal(err)
	}
	tok.Signature[0] ^= 1
	if err := origin.Redeem("exit", tok, "/x"); err != ErrBadToken {
		t.Errorf("tampered token error = %v", err)
	}
}

// TestDecouplingTable reproduces the paper's §3.2.1 table from an
// instrumented run with multiple clients.
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	is := NewIssuer("issuer.example", testKey(), lg)
	origin := NewOrigin("origin.example", "issuer.example", is.PublicKey(), lg)

	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("client-%d", i)
		exit := fmt.Sprintf("exit-%d", i%2)
		resource := fmt.Sprintf("/private/page-%d", i)
		cls.RegisterIdentity(id, id, "", core.Sensitive)
		cls.RegisterIdentity(exit, "", "", core.NonSensitive)
		cls.RegisterData(resource, id, "", core.Sensitive)
		is.Enroll(id)
		client := NewClient(id, is.PublicKey())
		ch, _ := origin.Challenge()
		tok, err := client.ObtainToken(ch, is)
		if err != nil {
			t.Fatal(err)
		}
		if err := origin.Redeem(exit, tok, resource); err != nil {
			t.Fatal(err)
		}
	}

	expected := core.PrivacyPass()
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
	if !v.Decoupled || v.Degree != 0 {
		t.Errorf("measured verdict = %s, want decoupled with degree 0", v)
	}
}

// TestIssuerOriginCollusionCannotLink: the unlinkability claim under the
// strongest coalition.
func TestIssuerOriginCollusionCannotLink(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	is := NewIssuer("issuer.example", testKey(), lg)
	origin := NewOrigin("origin.example", "issuer.example", is.PublicKey(), lg)
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("client-%d", i)
		resource := fmt.Sprintf("/r/%d", i)
		cls.RegisterIdentity(id, id, "", core.Sensitive)
		cls.RegisterData(resource, id, "", core.Sensitive)
		is.Enroll(id)
		ch, _ := origin.Challenge()
		tok, err := NewClient(id, is.PublicKey()).ObtainToken(ch, is)
		if err != nil {
			t.Fatal(err)
		}
		if err := origin.Redeem("anon", tok, resource); err != nil {
			t.Fatal(err)
		}
	}
	res := adversary.LinkSubjects(lg.Observations(), []string{IssuerName, OriginName})
	if rate := adversary.LinkageRate(res); rate != 0 {
		t.Errorf("issuer+origin collusion linked %.0f%% of clients", rate*100)
	}
}

func BenchmarkTokenRoundTrip(b *testing.B) {
	is, origin, client := setup(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := origin.Challenge()
		if err != nil {
			b.Fatal(err)
		}
		tok, err := client.ObtainToken(ch, is)
		if err != nil {
			b.Fatal(err)
		}
		if err := origin.Redeem("exit", tok, "/r"); err != nil {
			b.Fatal(err)
		}
	}
}
