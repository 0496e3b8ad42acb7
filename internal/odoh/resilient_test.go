package odoh

import (
	"errors"
	"testing"

	"decoupling/internal/dnswire"
	"decoupling/internal/resilience"
)

// TestResilientClientFailsOverAcrossProxies: dead proxies rotate out;
// the healthy one answers; no error escapes.
func TestResilientClientFailsOverAcrossProxies(t *testing.T) {
	proxy, target := ecosystem(t, nil)
	client := newClient(t, target, "client-1")

	deadCalls := 0
	dead := func(clientAddr string, raw []byte) ([]byte, error) {
		deadCalls++
		return nil, errors.New("proxy unreachable")
	}
	rc := &ResilientClient{
		Client:   client,
		Policy:   resilience.Default("odoh"),
		Forwards: []ForwardFunc{dead, dead, proxy.Forward},
	}
	resp, err := rc.Query("www.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %v", resp.RCode)
	}
	if deadCalls != 2 {
		t.Errorf("dead proxies tried %d times, want 2 (one each, then failover)", deadCalls)
	}
}

// TestResilientClientFailClosedNeverUsesFallback: even with a Fallback
// wired, the default FailClosed policy must never consult it.
func TestResilientClientFailClosedNeverUsesFallback(t *testing.T) {
	_, target := ecosystem(t, nil)
	client := newClient(t, target, "client-1")

	fallbacks := 0
	rc := &ResilientClient{
		Client: client,
		Policy: resilience.Default("odoh"), // FailClosed
		Forwards: []ForwardFunc{func(string, []byte) ([]byte, error) {
			return nil, errors.New("down")
		}},
		Fallback: func(name string, qtype dnswire.Type) (*dnswire.Message, error) {
			fallbacks++
			return dnswire.NewQuery(1, name, qtype).Reply(), nil
		},
	}
	_, err := rc.Query("www.example.com", dnswire.TypeA)
	if !errors.Is(err, resilience.ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if fallbacks != 0 {
		t.Errorf("fail-closed client used the fallback %d times", fallbacks)
	}
}
