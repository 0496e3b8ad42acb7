package mixnet

import (
	"fmt"
	"testing"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/simnet"
	"decoupling/internal/transport"
)

// Failure-injection tests: the mix network over lossy links. Chaum's
// design has no retransmission (that is the application's job), so the
// properties to hold are graceful degradation and, critically, that
// batching semantics never deadlock surviving messages.

func TestLossyLinksDegradeGracefully(t *testing.T) {
	net := simnet.New(13)
	net.SetDefaultLink(simnet.Link{Latency: time.Millisecond})
	net.ApplyFaults(faults.NewPlan().Loss(faults.Wildcard, faults.Wildcard, 0.2, 0, 0))
	route, _, rcv := buildCascade(t, net, 3, 1, 0, false, nil)
	const senders = 100
	for i := 0; i < senders; i++ {
		s := &Sender{Addr: transport.Addr(fmt.Sprintf("s%02d", i))}
		if err := s.Send(net, route, rcv.Info(), []byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	got := len(rcv.Inbox())
	// Survival probability per message is (1-0.2)^4 ≈ 0.41 over 4 hops.
	if got == 0 || got == senders {
		t.Errorf("delivered %d of %d at 20%% per-hop loss; expected partial delivery", got, senders)
	}
	if rcv.Dropped() != 0 {
		t.Errorf("receiver dropped %d messages (corruption, not loss?)", rcv.Dropped())
	}
	t.Logf("delivered %d/%d (expected ~%d)", got, senders, int(senders*0.41))
}

// TestBatchTimeoutDrainsAfterLoss: with threshold batching and loss,
// stragglers must still flush via the timeout rather than wait forever
// for lost peers.
func TestBatchTimeoutDrainsAfterLoss(t *testing.T) {
	net := simnet.New(17)
	net.SetDefaultLink(simnet.Link{Latency: time.Millisecond})
	net.ApplyFaults(faults.NewPlan().Loss(faults.Wildcard, faults.Wildcard, 0.5, 0, 0))
	route, _, rcv := buildCascade(t, net, 1, 8, 500*time.Millisecond, false, nil)
	for i := 0; i < 8; i++ {
		s := &Sender{Addr: transport.Addr(fmt.Sprintf("s%d", i))}
		if err := s.Send(net, route, rcv.Info(), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	// Half the batch (statistically) was lost before the mix; the
	// timeout must have flushed the survivors that reached it.
	arrivedAtMix := int(net.Delivered()) // deliveries include mix->receiver
	if len(rcv.Inbox()) == 0 && arrivedAtMix > 0 {
		t.Errorf("survivors stuck in batch queue: inbox=0, deliveries=%d", arrivedAtMix)
	}
}

// TestRepliesSurviveLossIndependently: reply-block traffic over lossy
// links also degrades without corruption.
func TestRepliesSurviveLossIndependently(t *testing.T) {
	net := simnet.New(23)
	net.SetDefaultLink(simnet.Link{Latency: time.Millisecond})
	net.ApplyFaults(faults.NewPlan().Loss(faults.Wildcard, faults.Wildcard, 0.15, 0, 0))
	route, _, rcv := buildCascade(t, net, 2, 1, 0, false, nil)
	collector := NewReplyCollector(net, "alice")

	const replies = 60
	keys := make([]*ReplyKeys, replies)
	for i := 0; i < replies; i++ {
		ra, k, err := BuildReplyBlock(route, collector.Addr)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
		if err := SendReply(net, rcv.Addr, ra, []byte(fmt.Sprintf("reply %02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	got := len(collector.Inbox())
	if got == 0 || got == replies {
		t.Errorf("delivered %d of %d replies at 15%% loss", got, replies)
	}
	if collector.Dropped() != 0 {
		t.Errorf("collector dropped %d (malformed deliveries)", collector.Dropped())
	}
}
