package onion

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/simnet"
	"decoupling/internal/transport"
)

func buildPath(t testing.TB, net transport.Transport, hops int, lg *ledger.Ledger) ([]RelayInfo, []*Relay, *Origin) {
	t.Helper()
	var infos []RelayInfo
	var relays []*Relay
	for i := 1; i <= hops; i++ {
		name := fmt.Sprintf("Relay %d", i)
		r, err := NewRelay(net, name, transport.Addr(fmt.Sprintf("relay%d", i)), lg)
		if err != nil {
			t.Fatal(err)
		}
		relays = append(relays, r)
		infos = append(infos, r.Info())
	}
	origin := NewOrigin(net, "Origin", "origin", 256, lg)
	return infos, relays, origin
}

func TestRequestResponseThreeHops(t *testing.T) {
	net := simnet.New(1)
	infos, _, origin := buildPath(t, net, 3, nil)
	client := NewClient(net, "alice")
	circ, err := client.BuildCircuit(infos)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	if err := circ.Request("origin", []byte("GET /page")); err != nil {
		t.Fatal(err)
	}
	net.Run()

	if got := origin.Requests(); len(got) != 1 || got[0] != "GET /page" {
		t.Fatalf("origin requests = %v", got)
	}
	resps := client.Responses()
	if len(resps) != 1 {
		t.Fatalf("responses = %d", len(resps))
	}
	if !strings.HasPrefix(string(resps[0].Body), "response to: GET /page") {
		t.Errorf("response body = %q", resps[0].Body[:40])
	}
}

func TestSingleHopWorks(t *testing.T) {
	net := simnet.New(1)
	infos, _, origin := buildPath(t, net, 1, nil)
	client := NewClient(net, "alice")
	circ, err := client.BuildCircuit(infos)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	if err := circ.Request("origin", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if len(origin.Requests()) != 1 || len(client.Responses()) != 1 {
		t.Fatalf("requests=%d responses=%d", len(origin.Requests()), len(client.Responses()))
	}
}

func TestMultiCellResponse(t *testing.T) {
	net := simnet.New(1)
	var infos []RelayInfo
	for i := 1; i <= 2; i++ {
		r, err := NewRelay(net, fmt.Sprintf("Relay %d", i), transport.Addr(fmt.Sprintf("relay%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, r.Info())
	}
	// Response larger than one cell: 1200 bytes over MaxData=497.
	NewOrigin(net, "Origin", "origin", 1200, nil)
	client := NewClient(net, "alice")
	circ, err := client.BuildCircuit(infos)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	if err := circ.Request("origin", []byte("big")); err != nil {
		t.Fatal(err)
	}
	net.Run()
	total := 0
	for _, r := range client.Responses() {
		total += len(r.Body)
	}
	if total != 1200 {
		t.Errorf("reassembled %d bytes, want 1200", total)
	}
}

func TestAllCellsAreFixedSize(t *testing.T) {
	net := simnet.New(1)
	infos, _, _ := buildPath(t, net, 3, nil)
	client := NewClient(net, "alice")
	circ, err := client.BuildCircuit(infos)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	preCells := len(net.Capture())
	circ.Request("origin", []byte("short"))
	circ.Request("origin", []byte(strings.Repeat("long request ", 30)))
	circ.SendChaff()
	net.Run()
	for _, rec := range net.Capture()[preCells:] {
		// Cell traffic between client and relays must be uniform; only
		// exit<->origin plaintext legs differ.
		if strings.HasPrefix(string(rec.Src), "relay") && rec.Dst == "origin" {
			continue
		}
		if rec.Src == "origin" {
			continue
		}
		if rec.Size != 1+CellSize {
			t.Errorf("non-uniform cell %s->%s size %d", rec.Src, rec.Dst, rec.Size)
		}
	}
}

func TestChaffAbsorbedAtExit(t *testing.T) {
	net := simnet.New(1)
	infos, _, origin := buildPath(t, net, 2, nil)
	client := NewClient(net, "alice")
	circ, err := client.BuildCircuit(infos)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	for i := 0; i < 5; i++ {
		if err := circ.SendChaff(); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	if len(origin.Requests()) != 0 {
		t.Errorf("chaff reached the origin: %v", origin.Requests())
	}
	if len(client.Responses()) != 0 {
		t.Errorf("chaff produced responses")
	}
}

func TestRequestTooLong(t *testing.T) {
	net := simnet.New(1)
	infos, _, _ := buildPath(t, net, 1, nil)
	client := NewClient(net, "alice")
	circ, err := client.BuildCircuit(infos)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	if err := circ.Request("origin", make([]byte, MaxData)); err != ErrTooLong {
		t.Errorf("oversized request error = %v", err)
	}
}

func TestUnknownCircuitCellsDropped(t *testing.T) {
	net := simnet.New(1)
	infos, relays, _ := buildPath(t, net, 1, nil)
	_ = infos
	bogus := make([]byte, 1+CellSize)
	bogus[0] = wireCell
	net.Send("attacker", relays[0].Addr, bogus)
	net.Run()
	if relays[0].Dropped() != 1 {
		t.Errorf("dropped = %d", relays[0].Dropped())
	}
}

// TestLatencyGrowsLinearlyWithHops is the §4.2 cost half of "degrees of
// decoupling": each extra hop adds ~2 link latencies to the round trip.
func TestLatencyGrowsLinearlyWithHops(t *testing.T) {
	rtt := func(hops int) time.Duration {
		net := simnet.New(1) // default 10ms links
		infos, _, _ := buildPath(t, net, hops, nil)
		client := NewClient(net, "alice")
		circ, err := client.BuildCircuit(infos)
		if err != nil {
			t.Fatal(err)
		}
		net.Run()
		start := net.Now()
		circ.Request("origin", []byte("r"))
		net.Run()
		resps := client.Responses()
		if len(resps) != 1 {
			t.Fatalf("hops=%d responses=%d", hops, len(resps))
		}
		return resps[0].Time - start
	}
	r1, r3, r5 := rtt(1), rtt(3), rtt(5)
	if r3 != r1+2*2*10*time.Millisecond {
		t.Errorf("rtt(3) = %v, want rtt(1)+40ms = %v", r3, r1+40*time.Millisecond)
	}
	if r5 != r3+2*2*10*time.Millisecond {
		t.Errorf("rtt(5) = %v, want rtt(3)+40ms = %v", r5, r3+40*time.Millisecond)
	}
}

// TestDecouplingStructure: entry knows the client (▲,⊙); exit sees the
// request (△,●); partial coalitions without the middle relay cannot
// link, the full path can.
func TestDecouplingStructure(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	net := simnet.New(3)
	infos, _, _ := buildPath(t, net, 3, lg)

	for i := 0; i < 4; i++ {
		who := fmt.Sprintf("client%d", i)
		req := fmt.Sprintf("GET /secret/%d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(req, who, "", core.Sensitive)
		client := NewClient(net, transport.Addr(who))
		circ, err := client.BuildCircuit(infos)
		if err != nil {
			t.Fatal(err)
		}
		net.Run()
		if err := circ.Request("origin", []byte(req)); err != nil {
			t.Fatal(err)
		}
		net.Run()
	}
	obs := lg.Observations()

	entry := lg.DeriveTuple("Relay 1", core.Tuple{core.NonSensID(), core.NonSensData()})
	if !entry.Equal(core.Tuple{core.SensID(), core.NonSensData()}) {
		t.Errorf("entry relay tuple = %s, want (▲, ⊙)", entry.Symbol())
	}
	exitTuple := lg.DeriveTuple("Relay 3", core.Tuple{core.NonSensID(), core.NonSensData()})
	if !exitTuple.Equal(core.Tuple{core.NonSensID(), core.SensData()}) {
		t.Errorf("exit relay tuple = %s, want (△, ●)", exitTuple.Symbol())
	}

	res := adversary.LinkSubjects(obs, []string{"Relay 1", "Relay 3"})
	if rate := adversary.LinkageRate(res); rate != 0 {
		t.Errorf("entry+exit linked %.0f%% without the middle relay", rate*100)
	}
	res = adversary.LinkSubjects(obs, []string{"Relay 1", "Relay 2", "Relay 3"})
	if rate := adversary.LinkageRate(res); rate != 1 {
		t.Errorf("full path collusion linked %.0f%%, want 100%%", rate*100)
	}
}

func TestBuildCircuitEmptyRelays(t *testing.T) {
	net := simnet.New(1)
	client := NewClient(net, "alice")
	if _, err := client.BuildCircuit(nil); err == nil {
		t.Error("empty circuit accepted")
	}
}

func BenchmarkRequestResponse3Hop(b *testing.B) {
	net := simnet.New(1)
	infos, _, _ := buildPath(b, net, 3, nil)
	client := NewClient(net, "alice")
	circ, err := client.BuildCircuit(infos)
	if err != nil {
		b.Fatal(err)
	}
	net.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := circ.Request("origin", []byte("GET /bench")); err != nil {
			b.Fatal(err)
		}
		net.Run()
	}
}
