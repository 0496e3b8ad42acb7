package odoh

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"testing/quick"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
)

func ecosystem(t testing.TB, lg *ledger.Ledger) (*Proxy, *Target) {
	t.Helper()
	z := dns.NewZone("example.com")
	for i, host := range []string{"www", "mail", "secret"} {
		if err := z.Add(dnswire.A(host+".example.com", 300, [4]byte{203, 0, 113, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{z}, Ledger: lg}
	target, err := NewTarget(TargetName, origin, lg)
	if err != nil {
		t.Fatal(err)
	}
	return NewProxy(ProxyName, target, lg), target
}

func newClient(t testing.TB, target *Target, id string) *Client {
	t.Helper()
	keyID, pub := target.KeyConfig()
	return NewClient(id, keyID, pub)
}

// counter sums every series of a counter family.
func counter(m *telemetry.Metrics, name string) float64 {
	sum := 0.0
	for _, s := range m.CounterSeries(name) {
		sum += s.Value
	}
	return sum
}

func TestQueryThroughProxy(t *testing.T) {
	proxy, target := ecosystem(t, nil)
	m := telemetry.NewMetrics()
	proxy.Instrument(telemetry.New(false, m))
	target.Instrument(telemetry.New(false, m))
	client := newClient(t, target, "client-1")
	resp, err := client.Query("www.example.com", dnswire.TypeA, proxy.Forward)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	forwarded, handled := counter(m, telemetry.MetricOdohForwarded), counter(m, telemetry.MetricOdohHandled)
	if forwarded != 1 || handled != 1 {
		t.Errorf("forwarded=%v handled=%v", forwarded, handled)
	}
}

func TestNXDomainPropagates(t *testing.T) {
	proxy, target := ecosystem(t, nil)
	client := newClient(t, target, "client-1")
	resp, err := client.Query("nope.example.com", dnswire.TypeA, proxy.Forward)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

// TestWrongKeyIDRejected: a query sealed to a key config the target
// never published fails with ErrUnknownKey, and the target records no
// observation for it.
func TestWrongKeyIDRejected(t *testing.T) {
	other, err := NewTarget("other", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	otherID, otherPub := other.KeyConfig()
	for _, tc := range []struct {
		name string
		cfg  func(target *Target) (keyID, pub []byte)
	}{
		{"bogus id", func(target *Target) ([]byte, []byte) {
			_, pub := target.KeyConfig()
			return []byte("bogus-id"), pub
		}},
		{"another target's config", func(*Target) ([]byte, []byte) { return otherID, otherPub }},
	} {
		lg := ledger.New(nil, nil)
		proxy, target := ecosystem(t, lg)
		keyID, pub := tc.cfg(target)
		client := NewClient("client-1", keyID, pub)
		if _, err := client.Query("www.example.com", dnswire.TypeA, proxy.Forward); !errors.Is(err, ErrUnknownKey) {
			t.Errorf("%s: err = %v, want ErrUnknownKey", tc.name, err)
		}
		if obs := lg.ByObserver(TargetName); len(obs) != 0 {
			t.Errorf("%s: target recorded %d observations, want none", tc.name, len(obs))
		}
		// The published config still works and is observed.
		if _, err := newClient(t, target, "client-2").Query("www.example.com", dnswire.TypeA, proxy.Forward); err != nil {
			t.Fatalf("%s: published config: %v", tc.name, err)
		}
		if len(lg.ByObserver(TargetName)) == 0 {
			t.Errorf("%s: target recorded nothing for a published config", tc.name)
		}
	}
}

func TestWrongTargetKeyFails(t *testing.T) {
	proxy, target := ecosystem(t, nil)
	keyID, _ := target.KeyConfig()
	other, err := NewTarget("other", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, otherPub := other.KeyConfig()
	client := NewClient("client-1", keyID, otherPub)
	if _, err := client.Query("www.example.com", dnswire.TypeA, proxy.Forward); err == nil {
		t.Error("query sealed to the wrong key succeeded")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{Type: MessageTypeQuery, KeyID: []byte("key-id"), Body: []byte("body bytes")}
	got, err := UnmarshalMessage(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || string(got.KeyID) != string(m.KeyID) || string(got.Body) != string(m.Body) {
		t.Errorf("round trip = %+v", got)
	}
}

func TestMessageUnmarshalFuzzSafety(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = UnmarshalMessage(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGarbageQueryErrors(t *testing.T) {
	_, target := ecosystem(t, nil)
	if _, err := target.HandleQuery("proxy", []byte("junk")); err == nil {
		t.Error("garbage accepted")
	}
	keyID, _ := target.KeyConfig()
	m := &Message{Type: MessageTypeQuery, KeyID: keyID, Body: make([]byte, 64)}
	if _, err := target.HandleQuery("proxy", m.Marshal()); err == nil {
		t.Error("undecryptable body accepted")
	}
}

// TestDecouplingTable reproduces the paper's §3.2.2 table for ODoH: the
// proxy plays the "Resolver" row, the target the "Oblivious Resolver".
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	proxy, target := ecosystem(t, lg)

	names := []string{"www.example.com", "mail.example.com", "secret.example.com"}
	for i := 0; i < 6; i++ {
		who := fmt.Sprintf("client-%d", i)
		name := names[i%len(names)]
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(dnswire.CanonicalName(name), who, "", core.Sensitive)
		client := newClient(t, target, who)
		if _, err := client.Query(name, dnswire.TypeA, proxy.Forward); err != nil {
			t.Fatal(err)
		}
	}

	expected := core.ObliviousDNS()
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
		t.Errorf("measured system not decoupled: %s", v)
	}
}

// TestProxyTargetCollusionLinks: the non-collusion caveat is measurable —
// proxy and target share the forwarding leg.
func TestProxyTargetCollusionLinks(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	proxy, target := ecosystem(t, lg)
	for i := 0; i < 4; i++ {
		who := fmt.Sprintf("client-%d", i)
		name := "www.example.com"
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(dnswire.CanonicalName(name), who, "", core.Sensitive)
		client := newClient(t, target, who)
		if _, err := client.Query(name, dnswire.TypeA, proxy.Forward); err != nil {
			t.Fatal(err)
		}
	}
	if rate := adversary.LinkageRate(adversary.LinkSubjects(lg.Observations(), []string{ProxyName})); rate != 0 {
		t.Errorf("proxy alone linked %.0f%%", rate*100)
	}
	if rate := adversary.LinkageRate(adversary.LinkSubjects(lg.Observations(), []string{ProxyName, TargetName})); rate == 0 {
		t.Error("proxy+target collusion failed to link any client")
	}
}

// TestHTTPStack runs client -> proxy server -> target server over real
// loopback HTTP. The HTTP target leg is the same relay as Forward, so it
// records the same proxy wire span and counter.
func TestHTTPStack(t *testing.T) {
	proxy, target := ecosystem(t, nil)
	tel := telemetry.New(false, telemetry.NewMetrics())
	proxy.Instrument(tel)
	wire := wiretrace.New(wiretrace.ModeRotate, 1)
	proxy.InstrumentWire(wire)
	targetSrv := httptest.NewServer(TargetHandler(target))
	defer targetSrv.Close()
	proxySrv := httptest.NewServer(ProxyHandler(proxy, targetSrv.Client(), targetSrv.URL))
	defer proxySrv.Close()

	client := newClient(t, target, "http-client")
	resp, err := client.Query("www.example.com", dnswire.TypeA, HTTPForward(proxySrv.Client(), proxySrv.URL, nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	forwards := 0
	for _, st := range wire.Stores() {
		for _, s := range st.Spans() {
			if s.Name == "odoh.proxy.forward" {
				forwards++
			}
		}
	}
	if forwards != 1 {
		t.Errorf("odoh.proxy.forward spans = %d, want 1", forwards)
	}
	series := tel.Metrics().CounterSeries(telemetry.MetricOdohForwarded)
	if len(series) != 1 || series[0].Value != 1 {
		t.Errorf("%s = %+v, want one series at 1", telemetry.MetricOdohForwarded, series)
	}
}

func BenchmarkQueryDirect(b *testing.B) {
	proxy, target := ecosystem(b, nil)
	client := newClient(b, target, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query("www.example.com", dnswire.TypeA, proxy.Forward); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryHTTP(b *testing.B) {
	proxy, target := ecosystem(b, nil)
	targetSrv := httptest.NewServer(TargetHandler(target))
	defer targetSrv.Close()
	proxySrv := httptest.NewServer(ProxyHandler(proxy, targetSrv.Client(), targetSrv.URL))
	defer proxySrv.Close()
	client := newClient(b, target, "bench")
	fwd := HTTPForward(proxySrv.Client(), proxySrv.URL, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query("www.example.com", dnswire.TypeA, fwd); err != nil {
			b.Fatal(err)
		}
	}
}
