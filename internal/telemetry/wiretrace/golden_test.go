package wiretrace_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/odoh"
	"decoupling/internal/telemetry/wiretrace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// odohSpans runs the canonical ODoH exchange (client → proxy → target
// → origin, two clients) on a rotate-mode plane with a fixed seed and
// no clock, and returns its JSONL export with the observed values
// stripped, as CI strips them: the proxy's ciphertext digests come
// from fresh HPKE keys. Everything left is reproducible byte for byte:
// ids follow the seed in admission order, and every time is zero.
func odohSpans(t *testing.T) []byte {
	t.Helper()
	plane := wiretrace.New(wiretrace.ModeRotate, 1)

	zone := dns.NewZone("example.com")
	if err := zone.Add(dnswire.A("www.example.com", 300, [4]byte{192, 0, 2, 1})); err != nil {
		t.Fatal(err)
	}
	if err := zone.Add(dnswire.A("mail.example.com", 300, [4]byte{192, 0, 2, 2})); err != nil {
		t.Fatal(err)
	}
	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{zone}, Wire: plane}

	lg := ledger.New(ledger.NewClassifier(), nil)
	target, err := odoh.NewTarget(odoh.TargetName, origin, lg)
	if err != nil {
		t.Fatal(err)
	}
	target.InstrumentWire(plane)
	proxy := odoh.NewProxy(odoh.ProxyName, target, lg)
	proxy.InstrumentWire(plane)
	keyID, pub := target.KeyConfig()

	for i, q := range []struct{ who, name string }{
		{"client-0", "www.example.com"},
		{"client-1", "mail.example.com"},
	} {
		c := odoh.NewClient(q.who, keyID, pub)
		c.InstrumentWire(plane)
		resp, err := c.Query(q.name, dnswire.TypeA, proxy.Forward)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("query %d: %d answers, want 1", i, len(resp.Answers))
		}
	}
	var buf bytes.Buffer
	if err := wiretrace.WriteJSONL(&buf, plane); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	for i, l := range lines {
		if j := strings.Index(l, `,"values":`); j >= 0 {
			lines[i] = l[:j] + "}\n"
		}
	}
	return []byte(strings.Join(lines, ""))
}

// TestODoHTraceGolden pins the wire-span JSONL schema: the exact bytes
// an ODoH exchange exports, values stripped. Run with -update after an
// intentional schema change.
func TestODoHTraceGolden(t *testing.T) {
	got := odohSpans(t)
	golden := filepath.Join("testdata", "odoh_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry/wiretrace -run ODoHTraceGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("spans diverged from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestODoHTraceShape validates the same export structurally: it passes
// the strict parser and Check, each query is a chain client → proxy →
// target → origin stitched through Parent, and every decoupling
// boundary rotates the trace id: the client's trace id names only its
// link to the proxy, so the target and the origin never see it.
func TestODoHTraceShape(t *testing.T) {
	recs, err := wiretrace.ParseJSONL(bytes.NewReader(odohSpans(t)))
	if err != nil {
		t.Fatalf("exported spans fail strict parse: %v", err)
	}
	if err := wiretrace.Check(recs); err != nil {
		t.Fatalf("exported spans fail Check: %v", err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d spans, want 8 (4 per query)", len(recs))
	}
	byID := map[string]wiretrace.Record{}
	for _, r := range recs {
		if r.StartNS != 0 || r.EndNS != 0 {
			t.Errorf("span %s has nonzero time %d..%d; no clock was bound", r.Span, r.StartNS, r.EndNS)
		}
		byID[r.Span] = r
	}
	chain := []struct{ vantage, name string }{
		{wiretrace.ClientVantage, "odoh.client.query"},
		{odoh.ProxyName, "odoh.proxy.forward"},
		{odoh.TargetName, "odoh.target.handle"},
		{"Origin", "dns.auth.handle"},
	}
	for _, leaf := range recs {
		if leaf.Vantage != "Origin" {
			continue
		}
		// Walk from the origin's span up to the client's root.
		path := []wiretrace.Record{leaf}
		for p := leaf.Parent; p != ""; p = byID[p].Parent {
			path = append([]wiretrace.Record{byID[p]}, path...)
		}
		if len(path) != len(chain) {
			t.Fatalf("chain to %s has %d spans, want %d", leaf.Span, len(path), len(chain))
		}
		for i, want := range chain {
			if path[i].Vantage != want.vantage || path[i].Name != want.name {
				t.Errorf("hop %d = %s/%s, want %s/%s", i, path[i].Vantage, path[i].Name, want.vantage, want.name)
			}
			if i >= 2 && path[i].Trace == path[0].Trace {
				t.Errorf("%s shares the client's trace id %s", path[i].Vantage, path[0].Trace)
			}
		}
	}
}
