package mixnet

import (
	"fmt"
	"testing"
	"time"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/simnet"
	"decoupling/internal/transport"
)

// buildCascade wires n mixes and a receiver on a fresh network.
func buildCascade(t testing.TB, net transport.Transport, n, threshold int, timeout time.Duration, padded bool, lg *ledger.Ledger) ([]NodeInfo, []*Mix, *Receiver) {
	t.Helper()
	var route []NodeInfo
	var mixes []*Mix
	for i := 1; i <= n; i++ {
		m, err := NewMix(net, fmt.Sprintf("Mix %d", i), transport.Addr(fmt.Sprintf("mix%d", i)), threshold, timeout, lg)
		if err != nil {
			t.Fatal(err)
		}
		mixes = append(mixes, m)
		route = append(route, m.Info())
	}
	rcv, err := NewReceiver(net, "Receiver", "receiver", padded, lg)
	if err != nil {
		t.Fatal(err)
	}
	return route, mixes, rcv
}

func TestSingleMessageDelivery(t *testing.T) {
	net := simnet.New(1)
	route, _, rcv := buildCascade(t, net, 3, 1, 0, false, nil)
	s := &Sender{Addr: "alice"}
	if err := s.Send(net, route, rcv.Info(), []byte("hello bob")); err != nil {
		t.Fatal(err)
	}
	net.Run()
	inbox := rcv.Inbox()
	if len(inbox) != 1 || string(inbox[0].Body) != "hello bob" {
		t.Fatalf("inbox = %+v", inbox)
	}
	if inbox[0].From != "mix3" {
		t.Errorf("message arrived from %q, want mix3", inbox[0].From)
	}
}

func TestPaddedDelivery(t *testing.T) {
	net := simnet.New(1)
	route, _, rcv := buildCascade(t, net, 2, 1, 0, true, nil)
	s := &Sender{Addr: "alice", PadTo: 512}
	if err := s.Send(net, route, rcv.Info(), []byte("short")); err != nil {
		t.Fatal(err)
	}
	net.Run()
	inbox := rcv.Inbox()
	if len(inbox) != 1 || string(inbox[0].Body) != "short" {
		t.Fatalf("inbox = %+v", inbox)
	}
}

func TestPadOverflow(t *testing.T) {
	net := simnet.New(1)
	route, _, rcv := buildCascade(t, net, 1, 1, 0, true, nil)
	s := &Sender{Addr: "alice", PadTo: 16}
	if err := s.Send(net, route, rcv.Info(), make([]byte, 100)); err != ErrPadOverflow {
		t.Errorf("err = %v, want ErrPadOverflow", err)
	}
}

func TestBatchingHoldsUntilThreshold(t *testing.T) {
	net := simnet.New(1)
	route, mixes, rcv := buildCascade(t, net, 1, 4, 0, false, nil)
	for i := 0; i < 3; i++ {
		s := &Sender{Addr: transport.Addr(fmt.Sprintf("sender%d", i))}
		if err := s.Send(net, route, rcv.Info(), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	if len(rcv.Inbox()) != 0 {
		t.Fatalf("messages leaked before batch threshold: %d", len(rcv.Inbox()))
	}
	// Fourth message completes the batch.
	s := &Sender{Addr: "sender3"}
	if err := s.Send(net, route, rcv.Info(), []byte("m3")); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if len(rcv.Inbox()) != 4 {
		t.Fatalf("inbox = %d after full batch", len(rcv.Inbox()))
	}
	if f, _ := mixes[0].Stats(); f != 1 {
		t.Errorf("flushes = %d", f)
	}
}

func TestBatchTimeoutFlushes(t *testing.T) {
	net := simnet.New(1)
	route, _, rcv := buildCascade(t, net, 1, 100, 2*time.Second, false, nil)
	s := &Sender{Addr: "alice"}
	if err := s.Send(net, route, rcv.Info(), []byte("lonely message")); err != nil {
		t.Fatal(err)
	}
	net.Run() // drains including the timeout event
	if len(rcv.Inbox()) != 1 {
		t.Fatalf("timeout did not flush: inbox = %d", len(rcv.Inbox()))
	}
	if got := rcv.Inbox()[0].Time; got < 2*time.Second {
		t.Errorf("delivered at %v, before the batch timeout", got)
	}
}

func TestTamperedOnionDropped(t *testing.T) {
	net := simnet.New(1)
	route, mixes, rcv := buildCascade(t, net, 2, 1, 0, false, nil)
	onion, err := BuildOnion(route, rcv.Info(), []byte("msg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	onion[40] ^= 1
	net.Send("alice", route[0].Addr, append([]byte{tagOnion}, onion...))
	net.Run()
	if len(rcv.Inbox()) != 0 {
		t.Error("tampered onion delivered")
	}
	if _, d := mixes[0].Stats(); d != 1 {
		t.Errorf("dropped = %d", d)
	}
}

func TestWrongMixCannotDecrypt(t *testing.T) {
	net := simnet.New(1)
	route, _, rcv := buildCascade(t, net, 2, 1, 0, false, nil)
	// Send the onion to mix2 first instead of mix1: layer sealed for
	// mix1 must not open at mix2.
	onion, err := BuildOnion(route, rcv.Info(), []byte("msg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	net.Send("alice", route[1].Addr, append([]byte{tagOnion}, onion...))
	net.Run()
	if len(rcv.Inbox()) != 0 {
		t.Error("misrouted onion was delivered")
	}
}

// TestDecouplingTable reproduces the paper's §3.1.2 mix-net table with
// N=3 from an instrumented run.
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	net := simnet.New(7)
	route, _, rcv := buildCascade(t, net, 3, 4, 0, false, lg)

	for i := 0; i < 8; i++ {
		sender := fmt.Sprintf("sender%d", i)
		msg := fmt.Sprintf("private note %d", i)
		cls.RegisterIdentity(sender, sender, "", core.Sensitive)
		cls.RegisterData(msg, sender, "", core.Sensitive)
		s := &Sender{Addr: transport.Addr(sender)}
		if err := s.Send(net, route, rcv.Info(), []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	if len(rcv.Inbox()) != 8 {
		t.Fatalf("inbox = %d", len(rcv.Inbox()))
	}

	expected := core.Mixnet(3)
	// The expected model names the user "Sender"; our senders are
	// multiple distinct users. Map: use the model as template only.
	measured := lg.DeriveSystem(expected)
	if diffs := core.CompareTuples(expected, measured); len(diffs) != 0 {
		t.Errorf("measured table diverges from paper:\n%s", core.RenderComparison(expected, measured))
		for _, d := range diffs {
			t.Log(d)
		}
	}
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Decoupled {
		t.Errorf("measured system not decoupled: %s", v)
	}
}

// TestPartialCollusionCannotLink / full chain can: the linkage-handle
// structure measured at runtime matches the §4.1 collusion argument.
func TestCollusionStructure(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	net := simnet.New(7)
	route, _, rcv := buildCascade(t, net, 3, 1, 0, false, lg)

	for i := 0; i < 4; i++ {
		sender := fmt.Sprintf("sender%d", i)
		msg := fmt.Sprintf("secret %d", i)
		cls.RegisterIdentity(sender, sender, "", core.Sensitive)
		cls.RegisterData(msg, sender, "", core.Sensitive)
		s := &Sender{Addr: transport.Addr(sender)}
		if err := s.Send(net, route, rcv.Info(), []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	obs := lg.Observations()

	// Mix 1 + Receiver: handle chain broken at mixes 2-3.
	res := adversary.LinkSubjects(obs, []string{"Mix 1", "Receiver"})
	if rate := adversary.LinkageRate(res); rate != 0 {
		t.Errorf("mix1+receiver linked %.0f%% without intermediate mixes", rate*100)
	}
	// Full cascade + receiver: complete chain, everything links.
	res = adversary.LinkSubjects(obs, []string{"Mix 1", "Mix 2", "Mix 3", "Receiver"})
	if rate := adversary.LinkageRate(res); rate != 1 {
		t.Errorf("full collusion linked only %.0f%%", rate*100)
	}
}

// TestShuffleDefeatsTimingCorrelation: with batch-and-shuffle the
// rank-order timing attack drops to ~chance; without batching it is
// perfect. This is the E12 mechanism in miniature.
func TestShuffleDefeatsTimingCorrelation(t *testing.T) {
	run := func(threshold int) float64 {
		net := simnet.New(99)
		route, _, rcv := buildCascade(t, net, 1, threshold, 0, false, nil)
		var entries []adversary.Event
		for i := 0; i < 16; i++ {
			sender := fmt.Sprintf("sender%d", i)
			s := &Sender{Addr: transport.Addr(sender)}
			// Stagger the entries so arrival order is the sender order.
			net.After(time.Duration(i)*time.Millisecond, func() {
				s.Send(net, route, rcv.Info(), []byte(sender))
			})
			entries = append(entries, adversary.Event{Time: time.Duration(i) * time.Millisecond, Subject: sender})
		}
		net.Run()
		var exits []adversary.Event
		for _, m := range rcv.Inbox() {
			exits = append(exits, adversary.Event{Time: m.Time, Subject: string(m.Body)})
		}
		correct, total := adversary.TimingCorrelate(entries, exits)
		return float64(correct) / float64(total)
	}
	if acc := run(1); acc != 1 {
		t.Errorf("no batching: timing accuracy = %.2f, want 1.0", acc)
	}
	if acc := run(16); acc > 0.5 {
		t.Errorf("batch of 16: timing accuracy = %.2f, want <= 0.5", acc)
	}
}

func TestBuildOnionEmptyRoute(t *testing.T) {
	if _, err := BuildOnion(nil, NodeInfo{}, []byte("x"), 0); err == nil {
		t.Error("empty route accepted")
	}
}

func BenchmarkBuildOnion3Hop(b *testing.B) {
	net := simnet.New(1)
	route, _, rcv := buildCascade(b, net, 3, 1, 0, false, nil)
	msg := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildOnion(route, rcv.Info(), msg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEnd3Hop(b *testing.B) {
	net := simnet.New(1)
	route, _, rcv := buildCascade(b, net, 3, 1, 0, false, nil)
	s := &Sender{Addr: "bench"}
	msg := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Send(net, route, rcv.Info(), msg); err != nil {
			b.Fatal(err)
		}
		net.Run()
	}
}

// TestStatisticalDisclosureOverCapture: the long-term intersection
// attack driven by the global observer's real capture. Alice messages
// bob in half the rounds amid noise traffic; grouping the capture into
// batch rounds and scoring exposes bob as her partner — batching hides
// per-message correspondence, not long-term participation.
func TestStatisticalDisclosureOverCapture(t *testing.T) {
	net := simnet.New(61)
	m, err := NewMix(net, "Mix 1", "mix1", 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	route := []NodeInfo{m.Info()}
	receivers := map[transport.Addr]*Receiver{}
	for i := 0; i < 6; i++ {
		addr := transport.Addr(fmt.Sprintf("recv%d", i))
		r, err := NewReceiver(net, string(addr), addr, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		receivers[addr] = r
	}

	const rounds = 150
	prevCapture := 0
	var obsRounds []adversary.Round
	for round := 0; round < rounds; round++ {
		// One batch of 4: alice (every other round) + noise senders.
		batch := 0
		if round%2 == 0 {
			s := &Sender{Addr: "alice"}
			if err := s.Send(net, route, receivers["recv0"].Info(), []byte("to bob")); err != nil {
				t.Fatal(err)
			}
			batch++
		}
		for batch < 4 {
			who := transport.Addr(fmt.Sprintf("noise%d", net.Rand(12)))
			dst := transport.Addr(fmt.Sprintf("recv%d", 1+net.Rand(5)))
			s := &Sender{Addr: who}
			if err := s.Send(net, route, receivers[dst].Info(), []byte("noise")); err != nil {
				t.Fatal(err)
			}
			batch++
		}
		net.Run()
		// Derive this round's observation from the capture delta.
		var r adversary.Round
		for _, rec := range net.Capture()[prevCapture:] {
			switch {
			case rec.Dst == "mix1":
				r.Senders = append(r.Senders, string(rec.Src))
			case rec.Src == "mix1":
				r.Receivers = append(r.Receivers, string(rec.Dst))
			}
		}
		prevCapture = len(net.Capture())
		obsRounds = append(obsRounds, r)
	}

	scored := adversary.StatisticalDisclosure(obsRounds, "alice")
	if len(scored) == 0 || scored[0].Receiver != "recv0" {
		t.Fatalf("top suspect = %+v, want recv0 (bob)", scored[:min(3, len(scored))])
	}
}
