package mixnet

import (
	"fmt"
	"strings"
	"testing"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/simnet"
	"decoupling/internal/transport"
)

func TestReplyRoundTrip(t *testing.T) {
	net := simnet.New(1)
	route, _, rcv := buildCascade(t, net, 3, 1, 0, false, nil)
	collector := NewReplyCollector(net, "alice")

	// Alice builds a reply block routed back through the same mixes and
	// includes it in her (out-of-band, for this test) message to Bob.
	ra, keys, err := BuildReplyBlock(route, collector.Addr)
	if err != nil {
		t.Fatal(err)
	}
	// Bob replies without ever learning who alice is.
	if err := SendReply(net, rcv.Addr, ra, []byte("yes, meet at noon")); err != nil {
		t.Fatal(err)
	}
	net.Run()

	inbox := collector.Inbox()
	if len(inbox) != 1 {
		t.Fatalf("collector inbox = %d", len(inbox))
	}
	if inbox[0].From != "mix3" {
		t.Errorf("reply arrived from %q, want the last mix", inbox[0].From)
	}
	// The delivered body is layered; raw bytes must not be the message.
	if string(inbox[0].Body) == "yes, meet at noon" {
		t.Fatal("reply arrived unencrypted")
	}
	if got := string(keys.Decrypt(inbox[0].Body)); got != "yes, meet at noon" {
		t.Errorf("decrypted reply = %q", got)
	}
}

func TestReplySingleMix(t *testing.T) {
	net := simnet.New(1)
	route, _, rcv := buildCascade(t, net, 1, 1, 0, false, nil)
	collector := NewReplyCollector(net, "alice")
	ra, keys, err := BuildReplyBlock(route, collector.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := SendReply(net, rcv.Addr, ra, []byte("ack")); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if got := collector.Inbox(); len(got) != 1 || string(keys.Decrypt(got[0].Body)) != "ack" {
		t.Fatalf("inbox = %+v", got)
	}
}

func TestReplyBlockSingleUse(t *testing.T) {
	// Two replies on independently built blocks decrypt independently;
	// keys from one block must not decrypt the other's reply.
	net := simnet.New(1)
	route, _, rcv := buildCascade(t, net, 2, 1, 0, false, nil)
	c1 := NewReplyCollector(net, "alice1")
	c2 := NewReplyCollector(net, "alice2")
	ra1, k1, _ := BuildReplyBlock(route, c1.Addr)
	ra2, k2, _ := BuildReplyBlock(route, c2.Addr)
	SendReply(net, rcv.Addr, ra1, []byte("first"))
	SendReply(net, rcv.Addr, ra2, []byte("second"))
	net.Run()
	if string(k1.Decrypt(c1.Inbox()[0].Body)) != "first" {
		t.Error("block 1 reply corrupted")
	}
	if string(k2.Decrypt(c2.Inbox()[0].Body)) != "second" {
		t.Error("block 2 reply corrupted")
	}
	if string(k1.Decrypt(c2.Inbox()[0].Body)) == "second" {
		t.Error("keys from block 1 decrypted block 2's reply")
	}
}

func TestReplyBatchesWithForwardTraffic(t *testing.T) {
	// A reply queued at a mix with threshold 2 waits for another
	// message — reply traffic enjoys the same batching defense.
	net := simnet.New(1)
	route, _, rcv := buildCascade(t, net, 1, 2, 0, false, nil)
	collector := NewReplyCollector(net, "alice")
	ra, _, err := BuildReplyBlock(route, collector.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := SendReply(net, rcv.Addr, ra, []byte("held")); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if len(collector.Inbox()) != 0 {
		t.Fatal("reply flushed before batch threshold")
	}
	// A forward message completes the batch and both flush together.
	s := &Sender{Addr: "carol"}
	if err := s.Send(net, route, rcv.Info(), []byte("filler")); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if len(collector.Inbox()) != 1 || len(rcv.Inbox()) != 1 {
		t.Errorf("after batch: replies=%d forwards=%d", len(collector.Inbox()), len(rcv.Inbox()))
	}
}

func TestMalformedReplyDropped(t *testing.T) {
	net := simnet.New(1)
	route, mixes, _ := buildCascade(t, net, 1, 1, 0, false, nil)
	net.Send("evil", route[0].Addr, []byte{tagReply, 0, 0})              // truncated length
	net.Send("evil", route[0].Addr, []byte{tagReply, 0, 0, 0, 99, 1, 2}) // length beyond payload
	garbage := append([]byte{tagReply, 0, 0, 0, 60}, make([]byte, 80)...)
	net.Send("evil", route[0].Addr, garbage) // undecryptable block
	net.Run()
	if _, d := mixes[0].Stats(); d != 3 {
		t.Errorf("dropped = %d, want 3", d)
	}
}

func TestBuildReplyBlockEmptyRoute(t *testing.T) {
	if _, _, err := BuildReplyBlock(nil, "alice"); err == nil {
		t.Error("empty route accepted")
	}
}

// TestReplyPathDecoupling: the receiver (now acting as a responder)
// never observes the sender's address, and no single mix links the
// responder to the sender. The reply path has the mirror-image
// knowledge structure of the forward path.
func TestReplyPathDecoupling(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	net := simnet.New(5)
	route, _, rcv := buildCascade(t, net, 3, 1, 0, false, lg)
	collector := NewReplyCollector(net, "alice-home")
	cls.RegisterIdentity("alice-home", "alice", "", core.Sensitive)
	cls.RegisterIdentity(string(rcv.Addr), "bob", "", core.Sensitive)

	ra, _, err := BuildReplyBlock(route, collector.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := SendReply(net, rcv.Addr, ra, []byte("reply body")); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if len(collector.Inbox()) != 1 {
		t.Fatal("reply not delivered")
	}

	// Mix 1 (receiver side) saw bob's address; mix 3 (sender side)
	// delivered to alice — but no single mix saw both.
	for _, name := range []string{"Mix 1", "Mix 2", "Mix 3"} {
		sawBob, sawAlice := false, false
		for _, o := range lg.ByObserver(name) {
			if strings.Contains(o.Value, string(rcv.Addr)) {
				sawBob = true
			}
			if strings.Contains(o.Value, "alice-home") {
				sawAlice = true
			}
		}
		if sawBob && sawAlice {
			t.Errorf("%s saw both endpoints of the reply path", name)
		}
	}

	// The handle chain along the reply path exists (full collusion
	// links) but any single mix does not.
	obs := lg.Observations()
	if rate := adversary.LinkageRate(adversary.LinkSubjects(obs, []string{"Mix 1"})); rate != 0 {
		t.Errorf("single mix linked %.0f%%", rate*100)
	}
}

func BenchmarkReplyRoundTrip(b *testing.B) {
	net := simnet.New(1)
	var route []NodeInfo
	for i := 1; i <= 3; i++ {
		m, err := NewMix(net, fmt.Sprintf("Mix %d", i), transport.Addr(fmt.Sprintf("mix%d", i)), 1, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		route = append(route, m.Info())
	}
	collector := NewReplyCollector(net, "alice")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ra, keys, err := BuildReplyBlock(route, collector.Addr)
		if err != nil {
			b.Fatal(err)
		}
		if err := SendReply(net, "bob", ra, []byte("bench reply")); err != nil {
			b.Fatal(err)
		}
		net.Run()
		_ = keys
	}
}
