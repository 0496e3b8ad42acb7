// ODoH demo: a complete Oblivious DNS over HTTPS deployment on
// loopback — proxy and target as real HTTP servers — with the ledger
// showing who saw what.
//
//	go run ./examples/odoh
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/odoh"
)

func main() {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)

	// Authoritative data the target resolves against.
	zone := dns.NewZone("example.com")
	for i, host := range []string{"www", "mail", "sensitive-clinic"} {
		if err := zone.Add(dnswire.A(host+".example.com", 300, [4]byte{192, 0, 2, byte(i)})); err != nil {
			log.Fatal(err)
		}
	}
	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{zone}, Ledger: lg}

	target, err := odoh.NewTarget(odoh.TargetName, origin, lg)
	if err != nil {
		log.Fatal(err)
	}
	proxy := odoh.NewProxy(odoh.ProxyName, target, lg)

	// Real HTTP servers on loopback.
	targetSrv := httptest.NewServer(odoh.TargetHandler(target))
	defer targetSrv.Close()
	proxySrv := httptest.NewServer(odoh.ProxyHandler(proxy, targetSrv.Client(), targetSrv.URL))
	defer proxySrv.Close()
	fmt.Printf("oblivious proxy:  %s\noblivious target: %s\n\n", proxySrv.URL, targetSrv.URL)

	// Ground truth for the analysis: who the clients are, which query
	// names are sensitive.
	queries := []struct{ who, name string }{
		{"alice", "www.example.com"},
		{"bob", "sensitive-clinic.example.com"},
		{"carol", "mail.example.com"},
	}
	keyID, pub := target.KeyConfig()
	for i, q := range queries {
		cls.RegisterIdentity(q.who, q.who, "", core.Sensitive)
		cls.RegisterData(dnswire.CanonicalName(q.name), q.who, "", core.Sensitive)
		client := odoh.NewClient(q.who, keyID, pub)
		// First query travels over the real HTTP servers to show the
		// stack working; the rest use the instrumented direct path so
		// the ledger attributes client identities (loopback HTTP hides
		// them behind ephemeral ports, which is great for privacy but
		// bad for ground truth).
		forward := proxy.Forward
		if i == 0 {
			forward = odoh.HTTPForward(http.DefaultClient, proxySrv.URL, nil)
		}
		resp, err := client.Query(q.name, dnswire.TypeA, forward)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s resolved %-32s -> %d.%d.%d.%d\n", q.who, q.name,
			resp.Answers[0].Data[0], resp.Answers[0].Data[1], resp.Answers[0].Data[2], resp.Answers[0].Data[3])
	}

	// What did each party actually see?
	fmt.Println("\nmeasured knowledge (vs the paper's §3.2.2 table):")
	expected := core.ObliviousDNS()
	measured := lg.DeriveSystem(expected)
	fmt.Print(core.RenderComparison(expected, measured))
	if diffs := core.CompareTuples(expected, measured); len(diffs) == 0 {
		fmt.Println("\nexact match with the published table")
	} else {
		fmt.Println("\nDIVERGENCES:", diffs)
	}
}
