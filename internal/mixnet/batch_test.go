package mixnet

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"decoupling/internal/faults"
	"decoupling/internal/nettransport"
	"decoupling/internal/simnet"
	"decoupling/internal/transport"
)

// The batch contract (§3.1.2): a mix forwards a batch once it holds
// Threshold messages or once Timeout has passed since that batch's
// first message. A batch that fills stops its own timer, so no later
// batch inherits it, and a crash costs only the batch it interrupted
// its timeout.

// traffic is one kind of message a mix batches: it sends message i
// through the one-mix route and reports when each delivered message
// arrived, sorted.
type traffic func(t *testing.T, net *simnet.Network, route []NodeInfo, rcv *Receiver) (send func(i int), arrivals func() []time.Duration)

var batchTraffic = []struct {
	name  string
	setup traffic
}{
	{"onion", func(t *testing.T, net *simnet.Network, route []NodeInfo, rcv *Receiver) (func(int), func() []time.Duration) {
		send := func(i int) {
			s := &Sender{Addr: transport.Addr(fmt.Sprintf("s%d", i))}
			if err := s.Send(net, route, rcv.Info(), []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return send, func() (at []time.Duration) {
			for _, r := range rcv.Inbox() {
				at = append(at, r.Time)
			}
			return sorted(at)
		}
	}},
	// Replies share the forward queue (handleReply), so they keep the
	// same contract.
	{"reply", func(t *testing.T, net *simnet.Network, route []NodeInfo, rcv *Receiver) (func(int), func() []time.Duration) {
		c := NewReplyCollector(net, "alice")
		send := func(i int) {
			ra, _, err := BuildReplyBlock(route, c.Addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := SendReply(net, rcv.Addr, ra, []byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return send, func() (at []time.Duration) {
			for _, r := range c.Inbox() {
				at = append(at, r.Time)
			}
			return sorted(at)
		}
	}},
}

func sorted(at []time.Duration) []time.Duration {
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

func ms(n ...int) []time.Duration {
	out := make([]time.Duration, len(n))
	for i, v := range n {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

// TestBatchTimeoutRunsFromBatchStart: four messages fill a batch at
// 10ms; a lone message reaching the mix at 100ms starts the next batch
// and must wait that batch's own 100ms timeout, not the first batch's
// timer (due at 110ms).
func TestBatchTimeoutRunsFromBatchStart(t *testing.T) {
	for _, tc := range batchTraffic {
		t.Run(tc.name, func(t *testing.T) {
			net := simnet.New(1)
			route, _, rcv := buildCascade(t, net, 1, 4, 100*time.Millisecond, false, nil)
			send, arrivals := tc.setup(t, net, route, rcv)
			for i := 0; i < 4; i++ {
				send(i)
			}
			net.RunUntil(90 * time.Millisecond)
			send(4)
			net.Run()
			if got, want := arrivals(), ms(20, 20, 20, 20, 210); !reflect.DeepEqual(got, want) {
				t.Errorf("arrivals = %v, want %v", got, want)
			}
		})
	}
}

// TestBatchTimeoutSurvivesCrash: the mix crashes over [20ms, 30ms) with
// one message queued, which cancels that batch's timer. Three messages
// at 40ms fill the batch; a lone message sent at 100ms must still get a
// timeout of its own.
func TestBatchTimeoutSurvivesCrash(t *testing.T) {
	net := simnet.New(1)
	route, _, rcv := buildCascade(t, net, 1, 4, 100*time.Millisecond, false, nil)
	net.ApplyFaults(faults.NewPlan().Crash("mix1", 20*time.Millisecond, 30*time.Millisecond))
	send, arrivals := batchTraffic[0].setup(t, net, route, rcv)
	send(0)
	net.RunUntil(40 * time.Millisecond)
	for i := 1; i < 4; i++ {
		send(i)
	}
	net.RunUntil(100 * time.Millisecond)
	send(4)
	net.Run()
	if got, want := arrivals(), ms(60, 60, 60, 60, 220); !reflect.DeepEqual(got, want) {
		t.Errorf("arrivals = %v, want %v", got, want)
	}
}

// TestBatchTimeoutStoppedOnRealTransport: on nettransport a batch that
// fills must release its timer, or Run waits the timeout out.
func TestBatchTimeoutStoppedOnRealTransport(t *testing.T) {
	const timeout = 2 * time.Second
	net := nettransport.New(nettransport.Options{Seed: 1})
	defer net.Close()
	route, _, rcv := buildCascade(t, net, 1, 2, timeout, false, nil)
	start := time.Now()
	for i := 0; i < 2; i++ {
		s := &Sender{Addr: transport.Addr(fmt.Sprintf("s%d", i))}
		if err := s.Send(net, route, rcv.Info(), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	if el := time.Since(start); el > timeout/2 {
		t.Errorf("Run returned after %v; it waited for the full batch's %v timer", el, timeout)
	}
	if n := len(rcv.Inbox()); n != 2 {
		t.Errorf("receiver got %d messages, want 2", n)
	}
}
