package simnet

import (
	"testing"

	"decoupling/internal/faults"
	"decoupling/internal/telemetry"
	"decoupling/internal/transport"
)

// TestInstrumentedDelivery checks the simulator's telemetry contract:
// each delivery, a relayed one included, feeds the per-link message
// and byte counters and the virtual send-to-receive latency histogram.
func TestInstrumentedDelivery(t *testing.T) {
	n := New(1)
	m := telemetry.NewMetrics()
	n.Instrument(telemetry.New(false, m))

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

	// Default link: 10ms per hop. The relayed hop is sent at 10ms and
	// delivered at 20ms, so each link's latency is its own 10ms.
	links := 0
	for _, f := range m.Snapshot() {
		if f.Name != telemetry.MetricSimnetLatency {
			continue
		}
		for _, s := range f.Samples {
			if s.Name == telemetry.MetricSimnetLatency+"_sum" {
				links++
				if s.Value != "0.01" {
					t.Errorf("latency sum %s = %s, want 0.01", s.Labels, s.Value)
				}
			}
		}
	}
	if links != 2 {
		t.Errorf("latency series = %d, want one per link (2)", links)
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
// and no delivery counter.
func TestInstrumentedLoss(t *testing.T) {
	n := New(1)
	m := telemetry.NewMetrics()
	n.Instrument(telemetry.New(false, m))
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
	if got := m.CounterSeries(telemetry.MetricSimnetMessages); len(got) != 0 {
		t.Errorf("dropped datagrams counted as deliveries: %+v", got)
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
	benchDelivery(b, telemetry.New(false, telemetry.NewMetrics()))
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
