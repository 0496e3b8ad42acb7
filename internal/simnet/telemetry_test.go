package simnet

import (
	"bytes"
	"testing"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/telemetry"
	"decoupling/internal/transport"
)

// TestInstrumentedDelivery checks the simulator's telemetry contract:
// each delivery becomes a span stamped with virtual send/receive times,
// a relayed message nests under the hop that triggered it, and the
// link counters/histogram fill in.
func TestInstrumentedDelivery(t *testing.T) {
	n := New(1)
	m := telemetry.NewMetrics()
	tel := telemetry.New("T", true, m)
	n.Instrument(tel)

	// b relays everything it receives to c: a → b → c is a 2-hop chain.
	n.Register("b", func(n transport.Transport, msg transport.Message) {
		if err := n.Send("b", "c", msg.Payload); err != nil {
			t.Error(err)
		}
	})
	n.Register("c", func(transport.Transport, transport.Message) {})
	if err := n.Send("a", "b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if delivered := n.Run(); delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}

	var buf bytes.Buffer
	if err := tel.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ParseJSONL(&buf)
	if err != nil {
		t.Fatalf("trace fails strict parse: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2 deliveries", len(recs))
	}
	first, second := recs[0], recs[1]
	if first.Name != "simnet.deliver" || first.Attrs["src"] != "a" || first.Attrs["dst"] != "b" {
		t.Errorf("first hop span wrong: %+v", first)
	}
	if first.Parent != 0 {
		t.Errorf("first hop parent = %d, want root", first.Parent)
	}
	if second.Parent != first.Span {
		t.Errorf("relayed hop parent = %d, want %d (must nest under the inbound hop)",
			second.Parent, first.Span)
	}
	// Default link: 10ms per hop. First hop sent at 0, delivered at
	// 10ms; second sent at 10ms, delivered at 20ms.
	if first.StartNS != 0 || first.EndNS != int64(10*time.Millisecond) {
		t.Errorf("first hop times = %d..%d", first.StartNS, first.EndNS)
	}
	if second.StartNS != int64(10*time.Millisecond) || second.EndNS != int64(20*time.Millisecond) {
		t.Errorf("second hop times = %d..%d", second.StartNS, second.EndNS)
	}

	total := 0.0
	for _, sv := range m.CounterSeries(telemetry.MetricSimnetMessages) {
		total += sv.Value
	}
	if total != 2 {
		t.Errorf("message counter total = %v, want 2", total)
	}
	for _, sv := range m.CounterSeries(telemetry.MetricSimnetBytes) {
		if sv.Value != float64(len("hello")) {
			t.Errorf("bytes counter %v = %v, want %d", sv.Labels, sv.Value, len("hello"))
		}
	}
}

// TestInstrumentedLoss checks dropped datagrams feed the lost counter
// and produce no delivery span.
func TestInstrumentedLoss(t *testing.T) {
	n := New(1)
	m := telemetry.NewMetrics()
	tel := telemetry.New("T", true, m)
	n.Instrument(tel)
	n.Register("b", func(transport.Transport, transport.Message) {})
	n.ApplyFaults(faults.NewPlan().Loss("a", "b", 1, 0, 0))
	for i := 0; i < 5; i++ {
		if err := n.Send("a", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if delivered := n.Run(); delivered != 0 {
		t.Fatalf("delivered = %d, want 0 at loss 1.0", delivered)
	}
	lost := m.CounterSeries(telemetry.MetricSimnetLost)
	if len(lost) != 1 || lost[0].Value != 5 {
		t.Errorf("lost counter = %+v, want one series at 5", lost)
	}
	if n := tel.Tracer().Len(); n != 0 {
		t.Errorf("dropped datagrams produced %d spans", n)
	}
}

// TestUninstrumentedRunUnchanged: a network without telemetry must
// behave exactly as before — this pins the nil-check-only contract.
func TestUninstrumentedRunUnchanged(t *testing.T) {
	n := New(1)
	got := 0
	n.Register("b", func(transport.Transport, transport.Message) { got++ })
	for i := 0; i < 3; i++ {
		n.Send("a", "b", []byte("x"))
	}
	if delivered := n.Run(); delivered != 3 || got != 3 {
		t.Fatalf("delivered=%d handled=%d, want 3/3", delivered, got)
	}
}

// BenchmarkDeliveryUninstrumented vs BenchmarkDeliveryInstrumented:
// the disabled-telemetry delivery loop must stay within noise of the
// pre-telemetry baseline (one nil check per event); the instrumented
// variant quantifies the opt-in cost.
func BenchmarkDeliveryUninstrumented(b *testing.B) {
	benchDelivery(b, nil)
}

func BenchmarkDeliveryInstrumented(b *testing.B) {
	benchDelivery(b, telemetry.New("bench", true, telemetry.NewMetrics()))
}

func benchDelivery(b *testing.B, tel *telemetry.Telemetry) {
	n := New(1)
	n.SetDefaultLink(Link{})
	n.Instrument(tel)
	n.Register("b", func(transport.Transport, transport.Message) {})
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Send("a", "b", payload); err != nil {
			b.Fatal(err)
		}
		n.Run()
	}
}
