package mpr

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

func TestFetchThroughTwoHops(t *testing.T) {
	stack, err := NewStack(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	body, err := stack.Fetch("/hello", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if body != "origin content for /hello" {
		t.Errorf("body = %q", body)
	}
	if stack.Relay1.Tunnels() != 1 || stack.Relay2.Tunnels() != 1 {
		t.Errorf("tunnels: r1=%d r2=%d", stack.Relay1.Tunnels(), stack.Relay2.Tunnels())
	}
}

func TestMultipleSequentialFetches(t *testing.T) {
	stack, err := NewStack(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	for i := 0; i < 5; i++ {
		body, err := stack.Fetch(fmt.Sprintf("/page/%d", i), "", nil)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !strings.Contains(body, fmt.Sprintf("/page/%d", i)) {
			t.Errorf("fetch %d body = %q", i, body)
		}
	}
}

func TestConcurrentFetches(t *testing.T) {
	stack, err := NewStack(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			_, err := stack.Fetch(fmt.Sprintf("/c/%d", i), "", nil)
			errs <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent fetch: %v", err)
		}
	}
}

func TestTokenGateAtRelay1(t *testing.T) {
	validate := func(tok string) error {
		if tok != "valid-token" {
			return errors.New("bad token")
		}
		return nil
	}
	stack, err := NewStack(nil, validate)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if _, err := stack.Fetch("/x", "", nil); err == nil {
		t.Error("tokenless fetch succeeded through gated relay")
	}
	if _, err := stack.Fetch("/x", "wrong", nil); err == nil {
		t.Error("wrong token accepted")
	}
	if _, err := stack.Fetch("/x", "valid-token", nil); err != nil {
		t.Errorf("valid token rejected: %v", err)
	}
	if stack.Relay1.Rejected() != 2 {
		t.Errorf("rejected = %d", stack.Relay1.Rejected())
	}
}

func TestNonConnectRejected(t *testing.T) {
	stack, err := NewStack(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	// Plain GET straight at relay 1.
	conn, err := Dial(stack.Relay1Addr, stack.Relay2Addr, stack.OriginAddr, nil)
	// Dial without TLS config: hop2 CONNECT goes to relay2 in plaintext;
	// relay2 expects TLS and drops the conn, so hop2 fails.
	if err == nil {
		conn.Close()
		t.Error("plaintext inner leg accepted by TLS relay2")
	}
}

// TestDecouplingTable reproduces the paper's §3.2.4 table from real
// socket observations.
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	stack, err := NewStack(lg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()

	// Relay 2's partial view: the origin endpoint from the CONNECT line.
	cls.RegisterData("connect:"+stack.OriginAddr, "", "", core.Partial)

	for i := 0; i < 6; i++ {
		who := fmt.Sprintf("user-%d", i)
		path := fmt.Sprintf("/secret/%d", i)
		cls.RegisterData(path, who, "", core.Sensitive)
		_, conn, err := stack.FetchConn(path, "", func(localAddr string) {
			cls.RegisterIdentity(localAddr, who, "", core.Sensitive)
		})
		if conn != nil {
			defer conn.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	expected := core.MPR()
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
		t.Errorf("measured MPR not decoupled: %s", v)
	}
	if v.Degree != 2 {
		t.Errorf("measured degree = %d (coalition %v), want 2 (the two relays)", v.Degree, v.MinCoalition)
	}
}

// TestCollusionStructure: relay 1 alone cannot link; the full
// relay1+relay2+origin coalition can, via the chained TCP 4-tuples.
func TestCollusionStructure(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	stack, err := NewStack(lg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	for i := 0; i < 4; i++ {
		who := fmt.Sprintf("user-%d", i)
		path := fmt.Sprintf("/secret/%d", i)
		cls.RegisterData(path, who, "", core.Sensitive)
		_, conn, err := stack.FetchConn(path, "", func(localAddr string) {
			cls.RegisterIdentity(localAddr, who, "", core.Sensitive)
		})
		if conn != nil {
			defer conn.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	obs := lg.Observations()
	if rate := adversary.LinkageRate(adversary.LinkSubjects(obs, []string{Relay1Name})); rate != 0 {
		t.Errorf("relay1 alone linked %.0f%%", rate*100)
	}
	if rate := adversary.LinkageRate(adversary.LinkSubjects(obs, []string{Relay1Name, OriginName})); rate != 0 {
		t.Errorf("relay1+origin (skipping relay2) linked %.0f%%", rate*100)
	}
	if rate := adversary.LinkageRate(adversary.LinkSubjects(obs, []string{Relay1Name, Relay2Name, OriginName})); rate != 1 {
		t.Errorf("full chain collusion linked %.0f%%, want 100%%", rate*100)
	}
}

// TestRelay1NeverSeesOrigin: the load-bearing negative for hop 1.
func TestRelay1NeverSeesOrigin(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	stack, err := NewStack(lg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if _, err := stack.Fetch("/private", "", nil); err != nil {
		t.Fatal(err)
	}
	for _, o := range lg.ByObserver(Relay1Name) {
		if strings.Contains(o.Value, stack.OriginAddr) || strings.Contains(o.Value, "/private") {
			t.Errorf("relay 1 observed origin information: %q", o.Value)
		}
	}
	// And relay 2 never sees the path (it is inside origin TLS).
	for _, o := range lg.ByObserver(Relay2Name) {
		if strings.Contains(o.Value, "/private") {
			t.Errorf("relay 2 observed the request path: %q", o.Value)
		}
	}
}

// TestPlaintextOriginLeakAblation: without TLS to the origin, relay 2
// sees the full request — the misconfiguration the nested encryption
// exists to prevent. (The request bytes flow through relay 2's splice;
// our relay only records CONNECT targets, so we assert at the transport
// level: the fetch still works and the origin records relay2 as peer.)
func TestPlaintextOriginAblation(t *testing.T) {
	lg := ledger.New(ledger.NewClassifier(), nil)
	stack, err := NewStack(lg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	// Plain HTTP origin for this ablation.
	plainOrigin := NewOrigin("PlainOrigin", nil, lg)
	plainAddr, err := plainOrigin.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer plainOrigin.Close()

	cfg := stack.ClientConfig("", nil)
	cfg.OriginTLS = nil
	conn, err := Dial(stack.Relay1Addr, stack.Relay2Addr, plainAddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /leaky HTTP/1.1\r\nHost: plain\r\nConnection: close\r\n\r\n")
	buf := make([]byte, 1024)
	n, _ := conn.Read(buf)
	if !strings.Contains(string(buf[:n]), "200 OK") {
		t.Errorf("plaintext fetch failed: %q", buf[:n])
	}
}

func BenchmarkFetchThroughStack(b *testing.B) {
	stack, err := NewStack(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer stack.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stack.Fetch("/bench", "", nil); err != nil {
			b.Fatal(err)
		}
	}
}
