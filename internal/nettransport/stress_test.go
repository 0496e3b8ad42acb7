package nettransport

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/transport"
)

// TestConcurrentClientsLedgerInvariants is the concurrency stress leg
// of the differential suite: ten thousand clients hammer one observer
// node over the real transport while every delivery admits a two-entry
// observation batch into the sharded ledger. Run under -race in CI.
//
// The invariants checked are the ones the audit chain depends on:
// no observation is dropped, global admission order is linearizable
// (strictly increasing seq with no gaps), and each SawBatch lands as a
// contiguous seq block so an Identity and the Data it arrived with can
// never be interleaved with another client's batch.
func TestConcurrentClientsLedgerInvariants(t *testing.T) {
	const (
		clients    = 10_000
		goroutines = 50
	)
	net := newTest(t, Options{DisableCapture: true})
	lg := ledger.New(ledger.NewClassifier(), nil)
	net.Register("server", func(_ transport.Transport, msg transport.Message) {
		lg.SawBatch("server", []ledger.Entry{
			{Kind: core.Identity, Value: string(msg.Src), Handles: []string{string(msg.Src)}},
			{Kind: core.Data, Value: "req:" + string(msg.Payload), Handles: []string{string(msg.Src)}},
		})
	})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < clients; i += goroutines {
				src := transport.Addr(fmt.Sprintf("client%05d", i))
				if err := net.Send(src, "server", []byte(fmt.Sprintf("q%05d", i))); err != nil {
					t.Errorf("Send %d: %v", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Deliveries start the moment the first Send lands, concurrent with
	// the rest of the storm; Run only waits for quiescence, so totals —
	// not Run's during-call delta — are what the invariants bind.
	net.Run()

	if net.Delivered() != clients || net.Lost() != 0 {
		t.Fatalf("delivered %d, lost %d; want %d reliable deliveries", net.Delivered(), net.Lost(), clients)
	}

	st := lg.Stats()
	if st.Total != 2*clients {
		t.Fatalf("ledger admitted %d observations, want %d (none dropped)", st.Total, 2*clients)
	}
	if len(st.Observers) != 1 || st.Observers[0].Observer != "server" || st.Observers[0].Handles != clients {
		t.Fatalf("stats %+v: want one observer with %d distinct handles", st, clients)
	}

	obs := lg.Observations()
	if len(obs) != 2*clients {
		t.Fatalf("Observations() returned %d, want %d", len(obs), 2*clients)
	}
	for i, o := range obs {
		if o.Seq() != uint64(i)+1 {
			t.Fatalf("observation %d has seq %d: admission order not gap-free", i, o.Seq())
		}
	}
	// Batch contiguity: pairs admitted together stay adjacent, Identity
	// then its Data, both naming the same client handle.
	for i := 0; i < len(obs); i += 2 {
		id, data := obs[i], obs[i+1]
		if id.Kind != core.Identity || data.Kind != core.Data {
			t.Fatalf("batch at seq %d interleaved: kinds %v,%v", id.Seq(), id.Kind, data.Kind)
		}
		if id.Handles[0] != data.Handles[0] {
			t.Fatalf("batch at seq %d split across clients: %q vs %q", id.Seq(), id.Handles[0], data.Handles[0])
		}
	}
}

// TestShutdownMidFlightFailsClosed closes the transport while senders
// are still pushing: every Send after the close must fail with
// ErrClosed (never silently re-route), Close must not deadlock on
// in-flight work, and the message accounting must not invent
// deliveries that never ran a handler.
func TestShutdownMidFlightFailsClosed(t *testing.T) {
	const clients = 2_000
	net := New(Options{DisableCapture: true})
	var mu sync.Mutex
	handled := 0
	net.Register("server", func(_ transport.Transport, msg transport.Message) {
		mu.Lock()
		handled++
		mu.Unlock()
	})

	var wg sync.WaitGroup
	var refused, accepted atomic64
	start := make(chan struct{})
	for g := 0; g < 20; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := g; i < clients; i += 20 {
				err := net.Send(transport.Addr(fmt.Sprintf("c%05d", i)), "server", []byte("x"))
				switch {
				case err == nil:
					accepted.add(1)
				case errors.Is(err, ErrClosed):
					refused.add(1)
				default:
					t.Errorf("Send %d: unexpected error %v", i, err)
					return
				}
			}
		}(g)
	}
	close(start)
	// Close concurrently with the send storm.
	if err := net.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	if err := net.Send("late", "server", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close: got %v, want ErrClosed", err)
	}
	if accepted.load()+refused.load() != clients {
		t.Fatalf("accounting: accepted %d + refused %d != %d", accepted.load(), refused.load(), clients)
	}
	mu.Lock()
	h := handled
	mu.Unlock()
	if uint64(h) > accepted.load() {
		t.Fatalf("handled %d messages but only %d were accepted", h, accepted.load())
	}
	if net.Delivered()+net.Lost() > accepted.load() {
		t.Fatalf("delivered %d + lost %d exceeds accepted %d", net.Delivered(), net.Lost(), accepted.load())
	}
}

// atomic64 avoids importing sync/atomic's type zoo into the test body.
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(n uint64) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
