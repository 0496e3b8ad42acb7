// Anonymous mail demo — Chaum's original 1981 application, which the
// paper presents as the root of the Decoupling Principle (§3.1.2): a
// whistleblower writes to a journalist through a mix cascade and
// includes an untraceable return address, so the journalist can answer
// without anyone — including the journalist — learning who they are
// talking to.
//
//	go run ./examples/anonmail
package main

import (
	"fmt"
	"log"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/mixnet"
	"decoupling/internal/simnet"
	"decoupling/internal/transport"
)

func main() {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	net := simnet.New(2026)

	// Three mixes run by different organizations, batch threshold 1 for
	// the demo (see E12 for why production wants batching).
	var route []mixnet.NodeInfo
	for i := 1; i <= 3; i++ {
		m, err := mixnet.NewMix(net, fmt.Sprintf("Mix %d", i), transport.Addr(fmt.Sprintf("mix%d", i)), 1, 0, lg)
		if err != nil {
			log.Fatal(err)
		}
		route = append(route, m.Info())
	}
	journalist, err := mixnet.NewReceiver(net, "Journalist", "journalist", false, lg)
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth for the measurement.
	cls.RegisterIdentity("whistleblower-home", "whistleblower", "", core.Sensitive)
	tip := "the tip: documents are in locker 47"
	cls.RegisterData(tip, "whistleblower", "", core.Sensitive)

	// 1. The source sends the tip and pre-builds a return address.
	sender := &mixnet.Sender{Addr: "whistleblower-home"}
	if err := sender.Send(net, route, journalist.Info(), []byte(tip)); err != nil {
		log.Fatal(err)
	}
	replyAddr, replyKeys, err := mixnet.BuildReplyBlock(route, "whistleblower-home")
	if err != nil {
		log.Fatal(err)
	}
	collector := mixnet.NewReplyCollector(net, "whistleblower-home")
	net.Run()

	got := journalist.Inbox()
	fmt.Printf("journalist received: %q (from %s — the last mix, not the source)\n", got[0].Body, got[0].From)

	// 2. The journalist replies via the return address, blind to the
	// source's identity.
	if err := mixnet.SendReply(net, journalist.Addr, replyAddr, []byte("received. stay safe — will verify")); err != nil {
		log.Fatal(err)
	}
	net.Run()

	replies := collector.Inbox()
	fmt.Printf("source received reply:  %q\n", replyKeys.Decrypt(replies[0].Body))

	// 3. What did each mix actually learn?
	fmt.Println("\nper-mix knowledge (derived from observations):")
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("Mix %d", i)
		tuple := lg.DeriveTuple(name, core.Tuple{core.NonSensID(), core.NonSensData()})
		fmt.Printf("  %-6s %s\n", name, tuple.Symbol())
	}
	fmt.Println("\nonly Mix 1 ever saw the source's address; only the journalist saw the tip;")
	fmt.Println("the journalist never learned — and cannot learn — who the source is.")
}
