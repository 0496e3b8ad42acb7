package simnet

import (
	"fmt"
	"testing"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/transport"
)

func TestDeliveryAndLatency(t *testing.T) {
	n := New(1)
	var got []string
	var at time.Duration
	n.Register("b", func(n transport.Transport, m transport.Message) {
		got = append(got, string(m.Payload))
		at = n.Now()
	})
	if err := n.Send("a", "b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if delivered := n.Run(); delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got %v", got)
	}
	if at != 10*time.Millisecond {
		t.Errorf("delivery time = %v, want default 10ms", at)
	}
}

func TestSendToUnregisteredFails(t *testing.T) {
	n := New(1)
	if err := n.Send("a", "ghost", nil); err == nil {
		t.Fatal("send to unregistered node succeeded")
	}
}

func TestFIFOForEqualTimestamps(t *testing.T) {
	n := New(1)
	var order []string
	n.Register("b", func(n transport.Transport, m transport.Message) { order = append(order, string(m.Payload)) })
	for i := 0; i < 10; i++ {
		n.Send("a", "b", []byte(fmt.Sprintf("%d", i)))
	}
	n.Run()
	for i, s := range order {
		if s != fmt.Sprintf("%d", i) {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestHandlersCanSend(t *testing.T) {
	n := New(1)
	var final string
	n.Register("relay", func(n transport.Transport, m transport.Message) {
		n.Send("relay", "sink", append([]byte("via-relay:"), m.Payload...))
	})
	n.Register("sink", func(n transport.Transport, m transport.Message) { final = string(m.Payload) })
	n.Send("src", "relay", []byte("x"))
	n.Run()
	if final != "via-relay:x" {
		t.Errorf("final = %q", final)
	}
}

func TestAfterTimer(t *testing.T) {
	n := New(1)
	var firedAt time.Duration
	n.After(250*time.Millisecond, func() { firedAt = n.Now() })
	n.Run()
	if firedAt != 250*time.Millisecond {
		t.Errorf("timer fired at %v", firedAt)
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	n := New(1)
	n.Register("b", func(n transport.Transport, m transport.Message) {})
	n.SetDefaultLink(Link{Latency: time.Second})
	n.Send("a", "b", nil)
	if d := n.RunUntil(500 * time.Millisecond); d != 0 {
		t.Errorf("delivered %d before deadline", d)
	}
	if n.Now() != 500*time.Millisecond {
		t.Errorf("clock = %v", n.Now())
	}
	if n.Pending() != 1 {
		t.Errorf("pending = %d", n.Pending())
	}
	if d := n.RunUntil(2 * time.Second); d != 1 {
		t.Errorf("delivered %d after deadline extension", d)
	}
}

func TestCaptureRecordsMetadataOnly(t *testing.T) {
	n := New(1)
	n.Register("b", func(n transport.Transport, m transport.Message) {})
	n.Send("a", "b", []byte("0123456789"))
	n.Run()
	cap := n.Capture()
	if len(cap) != 1 {
		t.Fatalf("capture length %d", len(cap))
	}
	r := cap[0]
	if r.Src != "a" || r.Dst != "b" || r.Size != 10 || r.Time != 10*time.Millisecond {
		t.Errorf("record = %+v", r)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []transport.PacketRecord {
		n := New(42)
		n.SetDefaultLink(Link{Latency: 5 * time.Millisecond})
		n.ApplyFaults(faults.NewPlan().Loss(faults.Wildcard, "sink", 0.3, 0, 0))
		n.Register("sink", func(n transport.Transport, m transport.Message) {})
		for i := 0; i < 50; i++ {
			n.Send(transport.Addr(fmt.Sprintf("n%d", i%7)), "sink", make([]byte, i))
		}
		n.Run()
		return n.Capture()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different capture lengths %d vs %d", len(a), len(b))
	}
	if len(a) == 0 || len(a) == 50 {
		t.Fatalf("delivered %d of 50 at 30%% loss; the plan drew no randomness", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPayloadIsolation(t *testing.T) {
	n := New(1)
	buf := []byte("original")
	var got string
	n.Register("b", func(n transport.Transport, m transport.Message) { got = string(m.Payload) })
	n.Send("a", "b", buf)
	buf[0] = 'X' // mutate after send; delivery must see the original
	n.Run()
	if got != "original" {
		t.Errorf("payload not isolated: %q", got)
	}
}

func TestDeliveredCounter(t *testing.T) {
	n := New(1)
	n.Register("b", func(n transport.Transport, m transport.Message) {})
	for i := 0; i < 5; i++ {
		n.Send("a", "b", nil)
	}
	n.After(time.Millisecond, func() {}) // timers don't count
	n.Run()
	if n.Delivered() != 5 {
		t.Errorf("Delivered = %d", n.Delivered())
	}
}

func BenchmarkSendRun(b *testing.B) {
	n := New(1)
	n.Register("sink", func(n transport.Transport, m transport.Message) {})
	payload := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Send("src", "sink", payload)
		if i%1024 == 1023 {
			n.Run()
		}
	}
	n.Run()
}

func TestLinkLossDropsStatistically(t *testing.T) {
	n := New(11)
	n.SetDefaultLink(Link{Latency: time.Millisecond})
	n.ApplyFaults(faults.NewPlan().Loss("a", "b", 0.5, 0, 0))
	n.Register("b", func(n transport.Transport, m transport.Message) {})
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send("a", "b", nil)
	}
	n.Run()
	got := n.Delivered()
	if got < total/2-150 || got > total/2+150 {
		t.Errorf("delivered %d of %d at 50%% loss", got, total)
	}
	if n.Lost()+got != total {
		t.Errorf("lost %d + delivered %d != %d", n.Lost(), got, total)
	}
}

func TestZeroLossDeliversAll(t *testing.T) {
	n := New(1)
	n.SetDefaultLink(Link{Latency: time.Millisecond})
	n.Register("b", func(n transport.Transport, m transport.Message) {})
	for i := 0; i < 100; i++ {
		n.Send("a", "b", nil)
	}
	n.Run()
	if n.Delivered() != 100 || n.Lost() != 0 {
		t.Errorf("delivered=%d lost=%d", n.Delivered(), n.Lost())
	}
}

func TestLossIsDeterministicPerSeed(t *testing.T) {
	run := func() uint64 {
		n := New(99)
		n.SetDefaultLink(Link{Latency: time.Millisecond})
		n.ApplyFaults(faults.NewPlan().Loss("a", "b", 0.3, 0, 0))
		n.Register("b", func(n transport.Transport, m transport.Message) {})
		for i := 0; i < 500; i++ {
			n.Send("a", "b", nil)
		}
		n.Run()
		return n.Delivered()
	}
	if run() != run() {
		t.Error("loss pattern not deterministic for fixed seed")
	}
}
