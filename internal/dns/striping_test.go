package dns

import (
	"fmt"
	"testing"

	"decoupling/internal/dnswire"
)

func stripingEcosystem(t testing.TB, k int) ([]*Resolver, []string) {
	t.Helper()
	z := NewZone("test")
	var names []string
	for i := 0; i < 24; i++ {
		n := fmt.Sprintf("site%02d.test", i)
		names = append(names, n)
		if err := z.Add(dnswire.A(n, 300, [4]byte{10, 0, 0, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	auth := &AuthServer{Name: "auth", Zones: []*Zone{z}}
	resolvers := make([]*Resolver, k)
	for i := range resolvers {
		resolvers[i] = NewResolver(fmt.Sprintf("resolver-%d", i), []Authority{auth}, nil, nil)
	}
	return resolvers, names
}

func TestStripedResolutionWorks(t *testing.T) {
	resolvers, names := stripingEcosystem(t, 4)
	c, err := NewStripedClient("alice", resolvers, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		resp := c.Resolve(dnswire.NewQuery(uint16(i), n, dnswire.TypeA))
		if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
			t.Fatalf("resolve %s failed: %+v", n, resp)
		}
	}
}

func TestProfileCompletenessFallsWithK(t *testing.T) {
	prev := 2.0
	for _, k := range []int{1, 2, 4, 8} {
		resolvers, names := stripingEcosystem(t, k)
		c, _ := NewStripedClient("alice", resolvers, 42)
		for pass := 0; pass < 2; pass++ {
			for j, n := range names {
				c.Resolve(dnswire.NewQuery(uint16(j), n, dnswire.TypeA))
			}
		}
		fracs := ProfileCompleteness("alice", resolvers, names)
		avg := 0.0
		for _, f := range fracs {
			avg += f
		}
		avg /= float64(k)
		if k == 1 && avg != 1.0 {
			t.Errorf("k=1 completeness = %.3f, want 1.0", avg)
		}
		if avg >= prev {
			t.Errorf("k=%d completeness %.3f did not fall below %.3f", k, avg, prev)
		}
		prev = avg
	}
}

func TestStripedClientErrors(t *testing.T) {
	if _, err := NewStripedClient("x", nil, 1); err != ErrNoResolvers {
		t.Errorf("err = %v", err)
	}
}

func TestProfileCompletenessEmptyTruth(t *testing.T) {
	resolvers, _ := stripingEcosystem(t, 2)
	fracs := ProfileCompleteness("alice", resolvers, nil)
	for _, f := range fracs {
		if f != 0 {
			t.Errorf("empty truth produced nonzero completeness %v", f)
		}
	}
}

func BenchmarkStripedResolve(b *testing.B) {
	resolvers, names := stripingEcosystem(b, 4)
	c, _ := NewStripedClient("bench", resolvers, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Resolve(dnswire.NewQuery(uint16(i), names[i%len(names)], dnswire.TypeA))
	}
}
