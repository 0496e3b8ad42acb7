package nettransport

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"decoupling/internal/telemetry"
	"decoupling/internal/transport"
)

func newTest(t *testing.T, opts Options) *Net {
	t.Helper()
	n := New(opts)
	t.Cleanup(func() { n.Close() })
	return n
}

// sink is a node that records what reaches it. Its fields are written
// only by the owning dispatcher; tests read them after Run, which the
// pending counter orders before the reads.
type sink struct {
	msgs []transport.Message
}

func (s *sink) handle(_ transport.Transport, msg transport.Message) {
	s.msgs = append(s.msgs, msg)
}

func TestModesDeliver(t *testing.T) {
	const n = 200
	t.Run("tcp", func(t *testing.T) {
		net := newTest(t, Options{})
		var s sink
		net.Register("sink", s.handle)
		for i := 0; i < n; i++ {
			payload := []byte(fmt.Sprintf("msg-%03d", i))
			if err := net.Send(transport.Addr(fmt.Sprintf("c%03d", i)), "sink", payload); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
		}
		// Deliveries run concurrently with sends on a real wire, so
		// Run's during-call delta undercounts; totals are the contract.
		net.Run()
		if net.Delivered()+net.Lost() != n {
			t.Fatalf("delivered %d + lost %d, want %d accounted", net.Delivered(), net.Lost(), n)
		}
		if net.Delivered() != n {
			t.Fatalf("delivered %d of %d (lost %d)", net.Delivered(), n, net.Lost())
		}
		if len(s.msgs) != n {
			t.Fatalf("sink saw %d messages, want %d", len(s.msgs), n)
		}
		seen := map[transport.Addr]bool{}
		for _, m := range s.msgs {
			if m.Dst != "sink" {
				t.Fatalf("message routed to %q", m.Dst)
			}
			seen[m.Src] = true
		}
		if len(seen) != n {
			t.Fatalf("distinct sources %d, want %d", len(seen), n)
		}
	})
}

func TestTCPPerDestinationFIFO(t *testing.T) {
	net := newTest(t, Options{})
	var s sink
	net.Register("sink", s.handle)
	const n = 500
	for i := 0; i < n; i++ {
		if err := net.Send("src", "sink", []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	net.Run()
	if got := net.Delivered(); got != n {
		t.Fatalf("delivered %d, want %d", got, n)
	}
	for i, m := range s.msgs {
		if got := int(m.Payload[0])<<8 | int(m.Payload[1]); got != i {
			t.Fatalf("position %d carries sequence %d: TCP per-destination FIFO violated", i, got)
		}
	}
}

// TestFIFOTwoSendersOneDestination sends from two goroutines at once
// into one destination's writer queue and inbox, both kept shallow so
// senders block on them: each sender's messages must arrive in its
// order.
func TestFIFOTwoSendersOneDestination(t *testing.T) {
	net := newTest(t, Options{InboxDepth: 4, OutDepth: 4})
	var s sink
	net.Register("sink", s.handle)
	const n = 500
	var wg sync.WaitGroup
	for _, src := range []transport.Addr{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := net.Send(src, "sink", []byte{byte(i >> 8), byte(i)}); err != nil {
					t.Errorf("Send %s %d: %v", src, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	net.Run()
	if got := net.Delivered(); got != 2*n {
		t.Fatalf("delivered %d, want %d", got, 2*n)
	}
	next := map[transport.Addr]int{}
	for _, m := range s.msgs {
		if got := int(m.Payload[0])<<8 | int(m.Payload[1]); got != next[m.Src] {
			t.Fatalf("%s's message %d arrived in place of %d: per-sender FIFO violated", m.Src, got, next[m.Src])
		}
		next[m.Src]++
	}
	if next["a"] != n || next["b"] != n {
		t.Fatalf("sink saw %d from a and %d from b, want %d each", next["a"], next["b"], n)
	}
}

// TestRelayChain drives a frame through three forwarding hops — the
// shape of a mixnet cascade — and checks the handler-side Transport
// view can keep sending.
func TestRelayChain(t *testing.T) {
	net := newTest(t, Options{})
	var s sink
	hops := []transport.Addr{"r1", "r2", "r3"}
	for i, addr := range hops {
		next := transport.Addr("sink")
		if i < len(hops)-1 {
			next = hops[i+1]
		}
		self, nxt := addr, next
		net.Register(addr, func(tr transport.Transport, msg transport.Message) {
			if err := tr.Send(self, nxt, append(msg.Payload, byte('.'))); err != nil {
				t.Errorf("relay %s: %v", self, err)
			}
		})
	}
	net.Register("sink", s.handle)
	if err := net.Send("origin", "r1", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	net.Run()
	if got := net.Delivered(); got != 4 {
		t.Fatalf("delivered %d hops, want 4", got)
	}
	if len(s.msgs) != 1 || !bytes.Equal(s.msgs[0].Payload, []byte("x...")) {
		t.Fatalf("sink got %+v, want one message with payload \"x...\"", s.msgs)
	}
	if s.msgs[0].Src != "r3" {
		t.Fatalf("sink sees src %q, want the last hop only", s.msgs[0].Src)
	}
}

// TestHandlerTimersSerialized arms timers from inside a handler and
// checks they run on the owning node's dispatcher: the node-local
// counter needs no lock, and Run waits for the timers.
func TestHandlerTimersSerialized(t *testing.T) {
	net := newTest(t, Options{})
	fired := 0
	var s sink
	net.Register("node", func(tr transport.Transport, msg transport.Message) {
		for i := 0; i < 8; i++ {
			tr.After(time.Duration(i)*time.Millisecond, func() { fired++ })
		}
	})
	net.Register("obs", s.handle)
	for i := 0; i < 4; i++ {
		if err := net.Send("src", "node", []byte("go")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	net.Run()
	if fired != 32 {
		t.Fatalf("fired %d timers, want 32", fired)
	}
}

func TestRunWaitsForDetachedTimers(t *testing.T) {
	net := newTest(t, Options{})
	done := false
	net.After(20*time.Millisecond, func() { done = true })
	net.Run()
	if !done {
		t.Fatal("Run returned before the armed timer fired")
	}
}

func TestSendToUnregistered(t *testing.T) {
	net := newTest(t, Options{})
	if err := net.Send("a", "nobody", []byte("x")); err == nil {
		t.Fatal("Send to unregistered destination succeeded")
	}
}

func TestCloseFailsClosed(t *testing.T) {
	net := New(Options{})
	var s sink
	net.Register("sink", s.handle)
	if err := net.Send("a", "sink", []byte("x")); err != nil {
		t.Fatalf("Send before close: %v", err)
	}
	net.Run()
	if err := net.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := net.Send("a", "sink", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close: got %v, want ErrClosed", err)
	}
	if err := net.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestRegisterReplacesHandler(t *testing.T) {
	net := newTest(t, Options{})
	var first, second sink
	net.Register("sink", first.handle)
	net.Register("sink", second.handle)
	if err := net.Send("a", "sink", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	net.Run()
	if len(first.msgs) != 0 || len(second.msgs) != 1 {
		t.Fatalf("replaced handler got %d, new handler got %d", len(first.msgs), len(second.msgs))
	}
}

func TestCaptureAndTelemetry(t *testing.T) {
	net := newTest(t, Options{})
	tel := telemetry.New(false, telemetry.NewMetrics())
	net.Instrument(tel)
	var s sink
	net.Register("sink", s.handle)
	if err := net.Send("a", "sink", []byte("four")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	net.Run()
	recs := net.Capture()
	if len(recs) != 1 {
		t.Fatalf("capture has %d records, want 1", len(recs))
	}
	if recs[0].Src != "a" || recs[0].Dst != "sink" || recs[0].Size != 4 {
		t.Fatalf("capture record %+v", recs[0])
	}
	series := tel.Metrics().CounterSeries(telemetry.MetricTransportMessages)
	if len(series) != 1 || series[0].Value != 1 {
		t.Fatalf("transport message counter series %+v", series)
	}
}

// TestLiveInstrumentation covers the wall-clock side of Instrument:
// frames/bytes queued (labelled mode="tcp"), timer fires, per-node
// inbox depth, and the pending gauge must all report through cached
// handles, and the resulting registry must satisfy the strict
// exposition round-trip.
func TestLiveInstrumentation(t *testing.T) {
	net := newTest(t, Options{})
	m := telemetry.NewMetrics()
	tel := telemetry.New(false, m)
	net.Instrument(tel)
	var s sink
	net.Register("sink", s.handle)
	for i := 0; i < 3; i++ {
		if err := net.Send("a", "sink", []byte("data")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	fired := make(chan struct{})
	net.After(time.Millisecond, func() { close(fired) })
	<-fired
	net.Run()

	frames := m.Counter(telemetry.MetricTransportFramesSent, "", telemetry.A("mode", "tcp"))
	if got := frames.Value(); got != 3 {
		t.Errorf("frames sent = %d, want 3", got)
	}
	bytesSent := m.Counter(telemetry.MetricTransportBytesSent, "", telemetry.A("mode", "tcp"))
	if got := bytesSent.Value(); got == 0 {
		t.Error("frame bytes sent = 0, want > 0")
	}
	fires := m.Counter(telemetry.MetricTransportTimerFires, "", telemetry.A("mode", "tcp"))
	if got := fires.Value(); got != 1 {
		t.Errorf("timer fires = %d, want 1", got)
	}
	pending := m.Gauge(telemetry.MetricTransportPending, "", telemetry.A("mode", "tcp"))
	if got := pending.Value(); got != 0 {
		t.Errorf("pending gauge after quiescence = %v, want 0", got)
	}
	// The dispatcher registers the depth gauge at its first dequeue;
	// m.Gauge below would register a missing series itself.
	var registered bool
	for _, f := range m.Snapshot() {
		for _, s := range f.Samples {
			registered = registered || f.Name == telemetry.MetricTransportInboxDepth && strings.Contains(s.Labels, `node="sink"`)
		}
	}
	if !registered {
		t.Error("no inbox depth gauge for node sink")
	}
	depth := m.Gauge(telemetry.MetricTransportInboxDepth, "", telemetry.A("node", "sink"))
	if got := depth.Value(); got < 0 {
		t.Errorf("inbox depth gauge = %v, want >= 0", got)
	}

	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("instrumented registry fails strict parse: %v\n%s", err, buf.String())
	}
}

func TestDisableCapture(t *testing.T) {
	net := newTest(t, Options{DisableCapture: true})
	var s sink
	net.Register("sink", s.handle)
	if err := net.Send("a", "sink", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	net.Run()
	if got := net.Capture(); len(got) != 0 {
		t.Fatalf("capture disabled but holds %d records", len(got))
	}
	if net.Delivered() != 1 {
		t.Fatalf("delivered %d, want 1", net.Delivered())
	}
}
