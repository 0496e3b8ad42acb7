package decoupling_test

import (
	"fmt"
	"testing"
	"time"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/mixnet"
	"decoupling/internal/ppm"
	"decoupling/internal/simnet"
	"decoupling/internal/transport"
)

// Scale tests: the systems at one order of magnitude beyond the
// experiment defaults, verifying correctness holds (not just doesn't
// crash). Skipped under -short.

func TestScaleMixnet(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	net := simnet.New(31)
	var route []mixnet.NodeInfo
	for i := 1; i <= 3; i++ {
		m, err := mixnet.NewMix(net, fmt.Sprintf("Mix %d", i), transport.Addr(fmt.Sprintf("mix%d", i)), 64, time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		route = append(route, m.Info())
	}
	rcv, err := mixnet.NewReceiver(net, "Receiver", "receiver", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 1000
	want := map[string]bool{}
	for i := 0; i < msgs; i++ {
		body := fmt.Sprintf("message-%04d", i)
		want[body] = true
		s := &mixnet.Sender{Addr: transport.Addr(fmt.Sprintf("sender%04d", i))}
		if err := s.Send(net, route, rcv.Info(), []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	inbox := rcv.Inbox()
	if len(inbox) != msgs {
		t.Fatalf("delivered %d of %d", len(inbox), msgs)
	}
	for _, m := range inbox {
		if !want[string(m.Body)] {
			t.Fatalf("unexpected or corrupted message %q", m.Body)
		}
		delete(want, string(m.Body))
	}
	if len(want) != 0 {
		t.Errorf("%d messages missing", len(want))
	}
}

func TestScalePPM(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	task := ppm.Task{ID: "scale-hist", Type: ppm.TaskHistogram, Buckets: 16}
	sys := ppm.NewSystem(task, 3, nil)
	const clients = 2000
	want := make([]uint64, 16)
	for i := 0; i < clients; i++ {
		b := uint64((i * 7) % 16)
		want[b]++
		if _, err := sys.Upload(fmt.Sprintf("c%04d", i), b); err != nil {
			t.Fatal(err)
		}
	}
	acc, rej := sys.VerifyAll()
	if acc != clients || rej != 0 {
		t.Fatalf("verify: accepted=%d rejected=%d", acc, rej)
	}
	got, err := sys.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScaleLinkageEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	const subjects = 5000
	for i := 0; i < subjects; i++ {
		who := fmt.Sprintf("user%05d", i)
		addr := fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xFF, i&0xFF)
		site := fmt.Sprintf("site%05d.test", i)
		cls.RegisterIdentity(addr, who, "", core.Sensitive)
		cls.RegisterData(site, who, "", core.Sensitive)
		h := fmt.Sprintf("conn-%05d", i)
		lg.SawIdentity("R1", addr, h)
		lg.SawData("R2", site, h)
	}
	res := adversary.LinkSubjects(lg.Observations(), []string{"R1", "R2"})
	if len(res) != subjects {
		t.Fatalf("results = %d", len(res))
	}
	if rate := adversary.LinkageRate(res); rate != 1 {
		t.Errorf("rate = %v, want 1", rate)
	}
}
