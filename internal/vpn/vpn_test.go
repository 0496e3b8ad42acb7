package vpn

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

func stack(t testing.TB, lg *ledger.Ledger) (vpnAddr, originAddr string, cleanup func()) {
	t.Helper()
	srv := NewServer(lg)
	vpnAddr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	origin := NewOrigin(lg)
	originAddr, err = origin.Start()
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return vpnAddr, originAddr, func() { srv.Close(); origin.Close() }
}

// fetch GETs url through the VPN at vpnAddr and closes the connection.
func fetch(vpnAddr, url string) (string, error) {
	body, conn, err := FetchConn(vpnAddr, url, nil)
	if conn != nil {
		conn.Close()
	}
	return body, err
}

func TestFetchThroughVPN(t *testing.T) {
	vpnAddr, originAddr, cleanup := stack(t, nil)
	defer cleanup()
	body, err := fetch(vpnAddr, "http://"+originAddr+"/doc")
	if err != nil {
		t.Fatal(err)
	}
	if body != "origin content for /doc" {
		t.Errorf("body = %q", body)
	}
}

// TestNonProxyRequestRejected: a request with a relative URI is not a
// forward-proxy request. The VPN answers 400 and observes nothing.
func TestNonProxyRequestRejected(t *testing.T) {
	lg := ledger.New(ledger.NewClassifier(), nil)
	srv := NewServer(lg)
	vpnAddr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", vpnAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /x HTTP/1.1\r\nHost: "+vpnAddr+"\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %s, want 400", resp.Status)
	}
	if obs := lg.ByObserver(ServerName); len(obs) != 0 {
		t.Errorf("%s recorded %d observations of a rejected request, want none", ServerName, len(obs))
	}
}

func TestUnreachableOrigin(t *testing.T) {
	vpnAddr, _, cleanup := stack(t, nil)
	defer cleanup()
	if _, err := fetch(vpnAddr, "http://127.0.0.1:1/nothing"); err == nil {
		t.Error("fetch of unreachable origin succeeded")
	}
}

// TestDecouplingTable reproduces the §3.3 cautionary-tale table: the
// VPN server measures as (▲, ●) and the verdict is NOT decoupled.
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	vpnAddr, originAddr, cleanup := stack(t, lg)
	defer cleanup()

	for i := 0; i < 5; i++ {
		who := fmt.Sprintf("user-%d", i)
		url := fmt.Sprintf("http://%s/secret/%d", originAddr, i)
		cls.RegisterData(url, who, "", core.Sensitive)
		_, conn, err := FetchConn(vpnAddr, url, func(localAddr string) {
			cls.RegisterIdentity(localAddr, who, "", core.Sensitive)
		})
		if conn != nil {
			defer conn.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	expected := core.VPN()
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
	if v.Decoupled {
		t.Error("measured VPN reported as decoupled; it must not be")
	}
	if v.Degree != 1 {
		t.Errorf("degree = %d, want 1 (single locus of observation)", v.Degree)
	}
}

// TestVPNAloneLinksEveryone: no collusion needed — the operator's own
// session records couple identity and data.
func TestVPNAloneLinksEveryone(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	vpnAddr, originAddr, cleanup := stack(t, lg)
	defer cleanup()
	for i := 0; i < 4; i++ {
		who := fmt.Sprintf("user-%d", i)
		url := fmt.Sprintf("http://%s/secret/%d", originAddr, i)
		cls.RegisterData(url, who, "", core.Sensitive)
		_, conn, err := FetchConn(vpnAddr, url, func(localAddr string) {
			cls.RegisterIdentity(localAddr, who, "", core.Sensitive)
		})
		if conn != nil {
			defer conn.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	res := adversary.LinkSubjects(lg.Observations(), []string{ServerName})
	if rate := adversary.LinkageRate(res); rate != 1 {
		t.Errorf("VPN server alone linked %.0f%%, want 100%%", rate*100)
	}
}

func BenchmarkFetchThroughVPN(b *testing.B) {
	vpnAddr, originAddr, cleanup := stack(b, nil)
	defer cleanup()
	url := "http://" + originAddr + "/bench"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fetch(vpnAddr, url); err != nil {
			b.Fatal(err)
		}
	}
}
