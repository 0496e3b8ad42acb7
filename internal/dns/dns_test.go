package dns

import (
	"fmt"
	"testing"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
)

func testEcosystem(t *testing.T, lg *ledger.Ledger, clock func() time.Duration) (*Resolver, *AuthServer) {
	t.Helper()
	z := NewZone("example.com")
	for i, host := range []string{"www", "mail", "api"} {
		if err := z.Add(dnswire.A(host+".example.com", 300, [4]byte{192, 0, 2, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	auth := &AuthServer{Name: "Origin", Zones: []*Zone{z}, Ledger: lg}
	return NewResolver("Resolver", []Authority{auth}, lg, clock), auth
}

func TestResolveA(t *testing.T) {
	r, _ := testEcosystem(t, nil, nil)
	resp := r.Resolve("client-1", dnswire.NewQuery(1, "www.example.com", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Answers[0].Data[3] != 0 {
		t.Errorf("A rdata = %v", resp.Answers[0].Data)
	}
}

func TestResolveNXDomain(t *testing.T) {
	r, _ := testEcosystem(t, nil, nil)
	resp := r.Resolve("client-1", dnswire.NewQuery(3, "missing.example.com", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestResolveOutsideDelegationServFail(t *testing.T) {
	r, _ := testEcosystem(t, nil, nil)
	resp := r.Resolve("client-1", dnswire.NewQuery(4, "other.test", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestCacheHitAvoidsAuthority(t *testing.T) {
	r, _ := testEcosystem(t, nil, nil)
	q := dnswire.NewQuery(5, "www.example.com", dnswire.TypeA)
	r.Resolve("c", q)
	r.Resolve("c", q)
	r.Resolve("c", q)
	hits, misses := r.CacheStats()
	if hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestCacheExpiryHonorsTTL(t *testing.T) {
	now := time.Duration(0)
	r, _ := testEcosystem(t, nil, func() time.Duration { return now })
	q := dnswire.NewQuery(6, "www.example.com", dnswire.TypeA)
	r.Resolve("c", q)
	now = 299 * time.Second
	r.Resolve("c", q)
	now = 301 * time.Second // past the 300s TTL
	r.Resolve("c", q)
	hits, misses := r.CacheStats()
	if hits != 1 || misses != 2 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestZoneRejectsForeignRecords(t *testing.T) {
	z := NewZone("example.com")
	if err := z.Add(dnswire.A("www.other.org", 300, [4]byte{1, 2, 3, 4})); err == nil {
		t.Error("foreign record accepted")
	}
}

func TestInZone(t *testing.T) {
	cases := []struct {
		name, origin string
		want         bool
	}{
		{"www.example.com.", "example.com.", true},
		{"example.com.", "example.com.", true},
		{"badexample.com.", "example.com.", false},
		{"anything.test.", ".", true},
	}
	for _, c := range cases {
		if got := InZone(c.name, c.origin); got != c.want {
			t.Errorf("InZone(%q, %q) = %v", c.name, c.origin, got)
		}
	}
}

func TestMostSpecificZoneWins(t *testing.T) {
	parent := NewZone("example.com")
	child := NewZone("sub.example.com")
	if err := parent.Add(dnswire.A("www.sub.example.com", 300, [4]byte{1, 1, 1, 1})); err != nil {
		t.Fatal(err)
	}
	if err := child.Add(dnswire.A("www.sub.example.com", 300, [4]byte{2, 2, 2, 2})); err != nil {
		t.Fatal(err)
	}
	s := &AuthServer{Name: "auth", Zones: []*Zone{parent, child}}
	resp := s.Handle("r", dnswire.NewQuery(1, "www.sub.example.com", dnswire.TypeA))
	if resp.Answers[0].Data[0] != 2 {
		t.Errorf("answer came from parent zone: %v", resp.Answers[0].Data)
	}
}

// TestBaselineDNSCouplesIdentityAndData verifies the premise of §3.2.2:
// a plain recursive resolver observes both who asked and what they
// asked, i.e. it is a (▲, ●) entity.
func TestBaselineDNSCouplesIdentityAndData(t *testing.T) {
	cls := ledger.NewClassifier()
	cls.RegisterIdentity("client-1", "alice", "", core.Sensitive)
	cls.RegisterData("www.example.com.", "alice", "", core.Sensitive)
	lg := ledger.New(cls, nil)
	r, _ := testEcosystem(t, lg, nil)
	r.Resolve("client-1", dnswire.NewQuery(7, "www.example.com", dnswire.TypeA))

	tuple := lg.DeriveTuple("Resolver", core.Tuple{core.NonSensID(), core.NonSensData()})
	want := core.Tuple{core.SensID(), core.SensData()}
	if !tuple.Equal(want) {
		t.Errorf("resolver tuple = %s, want %s (coupled)", tuple.Symbol(), want.Symbol())
	}
	if !tuple.Coupled() {
		t.Error("baseline resolver should be coupled")
	}
}

func TestQueryLogRecordsCoupling(t *testing.T) {
	r, _ := testEcosystem(t, nil, nil)
	for i := 0; i < 3; i++ {
		r.Resolve(fmt.Sprintf("client-%d", i), dnswire.NewQuery(uint16(i), "www.example.com", dnswire.TypeA))
	}
	log := r.Log()
	if len(log) != 3 {
		t.Fatalf("log entries = %d", len(log))
	}
	if log[2].Client != "client-2" || log[2].Name != "www.example.com." {
		t.Errorf("log[2] = %+v", log[2])
	}
}

func TestMultiQuestionRejected(t *testing.T) {
	r, _ := testEcosystem(t, nil, nil)
	q := dnswire.NewQuery(1, "www.example.com", dnswire.TypeA)
	q.Questions = append(q.Questions, q.Questions[0])
	resp := r.Resolve("c", q)
	if resp.RCode != dnswire.RCodeFormErr {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func BenchmarkResolveCached(b *testing.B) {
	z := NewZone("example.com")
	z.Add(dnswire.A("www.example.com", 300, [4]byte{1, 2, 3, 4}))
	auth := &AuthServer{Name: "auth", Zones: []*Zone{z}}
	r := NewResolver("res", []Authority{auth}, nil, nil)
	q := dnswire.NewQuery(1, "www.example.com", dnswire.TypeA)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Resolve("c", q)
	}
}
