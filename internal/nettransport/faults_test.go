package nettransport

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/telemetry"
	"decoupling/internal/transport"
)

// countSink counts deliveries under a lock: fault tests read it while
// senders and dispatchers are still moving.
type countSink struct {
	mu sync.Mutex
	n  int
}

func (s *countSink) handle(_ transport.Transport, _ transport.Message) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *countSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func TestCrashWindowRefusesAndRestarts(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		net := newTest(t, Options{Seed: 7})
		var s countSink
		net.Register("srv", s.handle)
		net.Register("cli", nil)
		if err := net.Send("cli", "srv", []byte("before")); err != nil {
			t.Fatalf("pre-crash send: %v", err)
		}
		net.Run()
		if s.count() != 1 {
			t.Fatalf("pre-crash delivered %d, want 1", s.count())
		}

		// Crash now, restart 60ms later.
		now := net.Now()
		net.ApplyFaults(faults.NewPlan().Crash("srv", now, now+60*time.Millisecond))
		deadline := time.Now().Add(2 * time.Second)
		for !net.CrashedNow("srv") {
			if time.Now().After(deadline) {
				t.Fatal("srv never went down")
			}
			time.Sleep(time.Millisecond)
		}
		err := net.Send("cli", "srv", []byte("during"))
		if !errors.Is(err, faults.ErrNodeDown) {
			t.Fatalf("send to crashed node: err = %v, want ErrNodeDown", err)
		}
		if net.FaultDrops() == 0 {
			t.Fatal("crashed-node send not counted as fault drop")
		}

		for net.CrashedNow("srv") {
			if time.Now().After(deadline) {
				t.Fatal("srv never restarted")
			}
			time.Sleep(time.Millisecond)
		}
		// Writers re-dial with backoff; a post-restart send must land.
		var delivered bool
		for i := 0; i < 20 && !delivered; i++ {
			if err := net.Send("cli", "srv", []byte("after")); err != nil {
				t.Fatalf("post-restart send: %v", err)
			}
			net.Run()
			delivered = s.count() >= 2
		}
		if !delivered {
			t.Fatalf("no delivery after restart (delivered %d)", s.count())
		}
	})
}

// TestTCPWriterReconnectsAfterReset drives the canonical reconnect
// path: an injected loss poisons the stream (partial frame + RST), the
// writer re-dials with backoff, and the reconnect is counted.
func TestTCPWriterReconnectsAfterReset(t *testing.T) {
	const seed = int64(5)
	net := newTest(t, Options{Seed: seed})
	var s countSink
	net.Register("srv", s.handle)
	net.Register("cli", nil)
	if err := net.Send("cli", "srv", []byte("establish")); err != nil {
		t.Fatalf("send: %v", err)
	}
	net.Run()
	net.ApplyFaults(faults.NewPlan().Loss("cli", "srv", 1.0, 0, 0))
	want := 0
	for i := 0; i < 32; i++ {
		// Every in-window send is a deterministic injected drop whose
		// poison resets the stream; the next surviving frame re-dials.
		if faults.LossDraw(seed, "cli", "srv", uint64(i)) >= 1.0 {
			want++
		}
		if err := net.Send("cli", "srv", []byte("doomed")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	net.Run()
	if want != 0 {
		t.Fatalf("loss 1.0 let %d frames through", want)
	}
	// The window never clears (until=0), so re-deliveries need a fresh
	// link: a second plan cannot remove faults, but sends from another
	// source still traverse the same destination queue and stream.
	if err := net.Send("other", "srv", []byte("revive")); err != nil {
		t.Fatalf("revive send: %v", err)
	}
	net.Run()
	deadline := time.Now().Add(2 * time.Second)
	for net.Reconnects() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect counted after %d poison resets", 32)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCrashCancelsOwnedTimers(t *testing.T) {
	net := newTest(t, Options{Seed: 7})
	var fired sync.Map
	var s countSink
	net.Register("srv", func(view transport.Transport, _ transport.Message) {
		s.handle(view, transport.Message{})
		// The handler arms an owned timer; the node crashes before it
		// fires, so it must be cancelled (simnet cancels the crashed
		// owner's queue events).
		view.After(50*time.Millisecond, func() { fired.Store("srv-timer", true) })
	})
	net.Register("cli", nil)
	if err := net.Send("cli", "srv", []byte("arm")); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Wait for the handler (and its After) before crashing.
	deadline := time.Now().Add(2 * time.Second)
	for s.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler never ran")
		}
		time.Sleep(time.Millisecond)
	}
	net.ApplyFaults(faults.NewPlan().Crash("srv", net.Now(), 0))
	net.Run() // quiesces: the cancelled timer releases its pending unit
	if _, ok := fired.Load("srv-timer"); ok {
		t.Fatal("timer armed before its owner crashed fired anyway")
	}
}

func TestPartitionDropsSilently(t *testing.T) {
	net := newTest(t, Options{Seed: 7})
	var s countSink
	net.Register("srv", s.handle)
	net.Register("a", nil)
	net.Register("b", nil)
	net.ApplyFaults(faults.NewPlan().PartitionOneWay("a", "srv", 0, 0))
	for i := 0; i < 5; i++ {
		if err := net.Send("a", "srv", []byte("cut")); err != nil {
			t.Fatalf("partitioned send errored (partitions are silent): %v", err)
		}
		if err := net.Send("b", "srv", []byte("ok")); err != nil {
			t.Fatalf("clear send: %v", err)
		}
	}
	net.Run()
	if got := s.count(); got != 5 {
		t.Fatalf("delivered %d, want only the 5 un-partitioned", got)
	}
	if net.FaultDrops() != 5 {
		t.Fatalf("fault drops %d, want 5", net.FaultDrops())
	}
}

// TestInjectedLossMatchesLossDraw pins the cross-transport determinism
// contract: which of N sends die under burst loss is exactly the
// LossDraw stream, per directed link.
func TestInjectedLossMatchesLossDraw(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		const n, rate, seed = 64, 0.3, int64(14)
		net := newTest(t, Options{Seed: seed})
		var s countSink
		net.Register("srv", s.handle)
		net.Register("cli", nil)
		net.ApplyFaults(faults.NewPlan().Loss("cli", "srv", rate, 0, 0))
		want := 0
		for i := 0; i < n; i++ {
			if faults.LossDraw(seed, "cli", "srv", uint64(i)) >= rate {
				want++
			}
			if err := net.Send("cli", "srv", []byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		net.Run()
		if got := s.count(); got != want {
			t.Fatalf("delivered %d, want %d (deterministic loss draw)", got, want)
		}
		if net.FaultDrops() != uint64(n-want) {
			t.Fatalf("fault drops %d, want %d", net.FaultDrops(), n-want)
		}
	})
}

func TestInjectedLossLabeledApartFromOrganic(t *testing.T) {
	net := newTest(t, Options{Seed: 1})
	reg := telemetry.NewMetrics()
	tel := telemetry.New(false, reg)
	net.Instrument(tel)
	var s countSink
	net.Register("srv", s.handle)
	net.Register("cli", nil)
	net.ApplyFaults(faults.NewPlan().Loss("cli", "srv", 1.0, 0, 0))
	for i := 0; i < 8; i++ {
		if err := net.Send("cli", "srv", []byte("doomed")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	net.Run()
	var injectedLost, faultDrops float64
	for _, sv := range reg.CounterSeries(telemetry.MetricTransportLost) {
		if !strings.HasPrefix(sv.Label("reason"), "injected:") {
			t.Fatalf("organic loss series %v under a pure-injected plan", sv.Labels)
		}
		injectedLost += sv.Value
	}
	for _, sv := range reg.CounterSeries(telemetry.MetricTransportFaultDrops) {
		faultDrops += sv.Value
	}
	if injectedLost != 8 || faultDrops != 8 {
		t.Fatalf("injected lost %v, fault drops %v, want 8 and 8", injectedLost, faultDrops)
	}
}

func TestLatencySpikeDelaysDelivery(t *testing.T) {
	net := newTest(t, Options{Seed: 1})
	var s countSink
	net.Register("srv", s.handle)
	net.Register("cli", nil)
	const extra = 60 * time.Millisecond
	net.ApplyFaults(faults.NewPlan().LatencySpike("cli", "srv", extra, 0, 0))
	start := time.Now()
	if err := net.Send("cli", "srv", []byte("slow")); err != nil {
		t.Fatalf("send: %v", err)
	}
	net.Run()
	if elapsed := time.Since(start); elapsed < extra {
		t.Fatalf("delivery took %v, want >= %v spike", elapsed, extra)
	}
	if s.count() != 1 {
		t.Fatalf("delivered %d, want 1 (spikes delay, never drop)", s.count())
	}
}

func TestSendShedsUnderOverloadTyped(t *testing.T) {
	// A tiny writer queue and a destination that cannot drain (crashed
	// from t=0 is not usable here — crashed sends fail fast — so instead
	// partition the writer's wire by pointing at a spiked, depth-1
	// queue).
	net := newTest(t, Options{Seed: 1, OutDepth: 1, ShedAfter: 5 * time.Millisecond})
	var s countSink
	net.Register("srv", s.handle)
	net.Register("cli", nil)
	// A huge head-of-line spike parks the single writer, so the depth-1
	// queue fills and later sends must shed.
	net.ApplyFaults(faults.NewPlan().LatencySpike("cli", "srv", 500*time.Millisecond, 0, 0))
	var shed int
	for i := 0; i < 8; i++ {
		err := net.Send("cli", "srv", []byte("burst"))
		if errors.Is(err, faults.ErrShed) {
			shed++
		} else if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if shed == 0 {
		t.Fatal("no send shed despite full depth-1 queue and 5ms ShedAfter")
	}
	if net.Shed() != uint64(shed) {
		t.Fatalf("Shed() = %d, want %d (every shed counted)", net.Shed(), shed)
	}
	net.Run()
}

// TestDeliverShedsOnFullInbox is the inbox side of the bound: while a
// node's handler is stuck, one later message fills its depth-1 inbox
// and every delivery after that waits ShedAfter and is shed, counted
// under where="deliver". Released, the node drains and Run quiesces
// with nothing pending.
func TestDeliverShedsOnFullInbox(t *testing.T) {
	net := newTest(t, Options{Seed: 1, InboxDepth: 1, ShedAfter: 2 * time.Millisecond})
	reg := telemetry.NewMetrics()
	net.Instrument(telemetry.New(false, reg))
	entered, release := make(chan struct{}, 1), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // runs before newTest's Close, which would wait on the handler
	var s countSink
	net.Register("srv", func(tr transport.Transport, msg transport.Message) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		s.handle(tr, msg)
	})
	net.Register("cli", nil)
	send := func() {
		if err := net.Send("cli", "srv", []byte("x")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	send()
	<-entered
	const later = 6
	for i := 0; i < later; i++ {
		send()
	}
	// The shed counter ticks before the labelled series, so wait on the
	// series.
	deliverSheds := func() (n float64) {
		for _, sv := range reg.CounterSeries(telemetry.MetricTransportShed) {
			if sv.Label("where") != "deliver" {
				t.Fatalf("shed series %v, want where=deliver only", sv.Labels)
			}
			n += sv.Value
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for deliverSheds() < later-1 {
		if time.Now().After(deadline) {
			t.Fatalf("where=deliver shed series = %v, want %d", deliverSheds(), later-1)
		}
		time.Sleep(time.Millisecond)
	}
	unblock()
	net.Run()
	if got := s.count(); got != 2 {
		t.Fatalf("handled %d, want 2 (the stuck message and the one queued)", got)
	}
	if net.Shed() != later-1 || net.Pending() != 0 {
		t.Fatalf("Shed() = %d, Pending() = %d after Run, want %d and 0", net.Shed(), net.Pending(), later-1)
	}
}

// TestCloseNoGoroutineLeakMidFlight is the regression for shutdown
// hygiene: Close during a chaos storm of in-flight sends, owned timers,
// and a crash window must return with every transport goroutine gone
// and subsequent sends failing typed with ErrClosed.
func TestCloseNoGoroutineLeakMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Run("tcp", func(t *testing.T) {
		net := New(Options{Seed: 3, OutDepth: 64, ShedAfter: 2 * time.Millisecond})
		net.Register("srv", func(view transport.Transport, _ transport.Message) {
			view.After(10*time.Millisecond, func() {})
		})
		for i := 0; i < 8; i++ {
			net.Register(transport.Addr(fmt.Sprintf("c%d", i)), nil)
		}
		net.ApplyFaults(faults.NewPlan().
			Loss("c0", "srv", 0.5, 0, 0).
			LatencySpike("c1", "srv", 20*time.Millisecond, 0, 0).
			Crash("srv", 30*time.Millisecond, 60*time.Millisecond))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 400; i++ {
				src := transport.Addr(fmt.Sprintf("c%d", i%8))
				if err := net.Send(src, "srv", []byte("mid-flight")); err != nil {
					// Shed, crashed, closed: all fine — typed, never a hang.
					continue
				}
			}
		}()
		time.Sleep(15 * time.Millisecond) // mid-storm
		if err := net.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		<-done
		if err := net.Send("c0", "srv", []byte("late")); !errors.Is(err, ErrClosed) {
			t.Fatalf("send after Close: err = %v, want ErrClosed", err)
		}
	})
	// Crash timers may still be parked in the runtime; give transitions
	// (which see closed and bail) a moment, then require the goroutine
	// count back at baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
