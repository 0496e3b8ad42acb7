package experiments

import (
	"encoding/base64"
	"fmt"
	"net"

	"decoupling/internal/core"
	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/dcrypto/token"
	"decoupling/internal/ech"
	"decoupling/internal/ledger"
	"decoupling/internal/mixnet"
	"decoupling/internal/mpr"
	"decoupling/internal/pgpp"
	"decoupling/internal/ppm"
	"decoupling/internal/privacypass"
	"decoupling/internal/transport"
	"decoupling/internal/vpn"
	"decoupling/internal/workload"

	"decoupling/internal/digitalcash"
)

// keyBits is the blind-RSA modulus used across experiments; modest so
// the full suite runs in seconds while still exercising real math.
const keyBits = 1024

// E1DigitalCash reproduces the §3.1.1 blind-signature digital-currency
// table: 20 buyers withdraw and spend coins; Signer, Verifier, and
// Seller tuples are measured.
func E1DigitalCash(ctx Ctx) (*Result, error) {
	tel := ctx.Tel
	r := &Result{ID: "E1", Title: "Digital cash (blind signatures)", Section: "3.1.1"}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)
	bank, err := digitalcash.NewBank(keyBits, lg)
	if err != nil {
		return nil, err
	}
	bank.OpenAccount("bookshop", 0)
	seller := digitalcash.NewSeller("bookshop", "retail-books", bank, lg)
	cls.RegisterIdentity("bookshop", "", "", core.NonSensitive)

	for i := 0; i < 20; i++ {
		who := fmt.Sprintf("buyer%02d", i)
		item := fmt.Sprintf("controversial book %02d", i)
		anon := fmt.Sprintf("anon-session-%02d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterIdentity(anon, who, "", core.NonSensitive)
		cls.RegisterData(item, who, "", core.Sensitive)
		cls.RegisterData("retail-books", who, "", core.Partial)
		bank.OpenAccount(who, 2)
		coin, err := digitalcash.NewBuyer(who, bank).WithdrawCoin()
		if err != nil {
			return nil, err
		}
		if err := seller.Sell(coin, item, anon); err != nil {
			return nil, err
		}
	}
	w, d := bank.Stats()
	r.Notes = append(r.Notes, fmt.Sprintf("%d coins withdrawn, %d deposited, 0 linkable", w, d))
	r.Expected = core.DigitalCash()
	r.Measured = lg.DeriveSystem(r.Expected)
	r.Ledger = lg
	return r, tableExperiment(r)
}

// E2Mixnet reproduces the §3.1.2 table and Figure 1 with a 3-mix
// cascade carrying 64 senders' messages, batch threshold 8.
func E2Mixnet(ctx Ctx) (*Result, error) {
	tel := ctx.Tel
	r := &Result{ID: "E2", Title: "Mix-net (Figure 1)", Section: "3.1.2"}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)
	net := ctx.NewRunner(2)
	defer net.Close()
	net.Instrument(tel)
	ctx.Wire.SetClock(net.Now)
	c, err := newCascade(net, lg, 3, 8, false, tel, ctx.Wire)
	if err != nil {
		return nil, err
	}
	phase := tel.Start("phase:forward")
	for i := 0; i < 64; i++ {
		from, msg := registerSender(cls, i)
		if err := c.send(net, from, ctx.Wire, msg); err != nil {
			return nil, err
		}
	}
	net.Run()
	phase.End()
	if got := len(c.rcv.Inbox()); got != 64 {
		return nil, fmt.Errorf("E2: delivered %d of 64 messages", got)
	}

	// The other half of Chaum's 1981 design: untraceable return
	// addresses. A sender pre-builds a reply block; the receiver answers
	// through it without learning who they answered.
	phase = tel.Start("phase:reply")
	collector := mixnet.NewReplyCollector(net, "sender00")
	replyAddr, replyKeys, err := mixnet.BuildReplyBlock(c.route, collector.Addr)
	if err != nil {
		return nil, err
	}
	if err := mixnet.SendReply(net, c.rcv.Addr, replyAddr, []byte("reply via return address")); err != nil {
		return nil, err
	}
	// The reply joins a batch; push 7 forward messages to flush it.
	for i := 0; i < 7; i++ {
		if err := c.send(net, transport.Addr(fmt.Sprintf("filler%d", i)), nil, fmt.Sprintf("filler %d", i)); err != nil {
			return nil, err
		}
	}
	net.Run()
	phase.End()
	r.VirtualElapsed = net.Now()
	replies := collector.Inbox()
	if len(replies) != 1 || string(replyKeys.Decrypt(replies[0].Body)) != "reply via return address" {
		r.Diffs = append(r.Diffs, fmt.Sprintf("return-address reply failed: %d replies", len(replies)))
	}

	r.Notes = append(r.Notes,
		"64 messages through 3 mixes, batch threshold 8, all delivered",
		"untraceable return address exercised: the receiver replied without learning the sender")
	r.Expected = core.Mixnet(3)
	r.Measured = lg.DeriveSystem(r.Expected)
	r.Ledger = lg
	return r, tableExperiment(r)
}

// E3PrivacyPass reproduces the §3.2.1 table and Figure 2: clients prove
// legitimacy to the issuer, redeem unlinkable tokens at the origin.
func E3PrivacyPass(ctx Ctx) (*Result, error) {
	tel := ctx.Tel
	r := &Result{ID: "E3", Title: "Privacy Pass (Figure 2)", Section: "3.2.1"}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)
	issuer, err := privacypass.NewIssuer("issuer.example", keyBits, lg)
	if err != nil {
		return nil, err
	}
	origin := privacypass.NewOrigin("origin.example", "issuer.example", issuer.PublicKey(), lg)

	const clients, tokensEach = 8, 3
	for i := 0; i < clients; i++ {
		id := fmt.Sprintf("client-%d", i)
		exit := fmt.Sprintf("exit-%d", i%2)
		cls.RegisterIdentity(id, id, "", core.Sensitive)
		cls.RegisterIdentity(exit, "", "", core.NonSensitive)
		issuer.Enroll(id)
		c := privacypass.NewClient(id, issuer.PublicKey())
		for j := 0; j < tokensEach; j++ {
			resource := fmt.Sprintf("/private/%d/%d", i, j)
			cls.RegisterData(resource, id, "", core.Sensitive)
			ch, err := origin.Challenge()
			if err != nil {
				return nil, err
			}
			tok, err := c.ObtainToken(ch, issuer)
			if err != nil {
				return nil, err
			}
			if err := origin.Redeem(exit, tok, resource); err != nil {
				return nil, err
			}
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%d tokens issued and redeemed; issuance/redemption unlinkable", clients*tokensEach))
	r.Expected = core.PrivacyPass()
	r.Measured = lg.DeriveSystem(r.Expected)
	r.Ledger = lg
	return r, tableExperiment(r)
}

// E4ObliviousDNS reproduces the §3.2.2 table for both ODNS and ODoH (the
// two named instantiations); both must match the same published table.
func E4ObliviousDNS(ctx Ctx) (*Result, error) {
	r := &Result{ID: "E4", Title: "Oblivious DNS (ODNS + ODoH)", Section: "3.2.2"}
	expected := core.ObliviousDNS()

	// Both halves run through the shared audit scenario runners, so
	// `decouple audit odns|odoh` explains exactly the runs measured here.
	lgA, err := runODNSScenario(ctx, 1)
	if err != nil {
		return nil, err
	}
	measuredA := lgA.DeriveSystem(expected)
	diffsA := core.CompareTuples(expected, measuredA)

	lgB, err := runODoHScenario(ctx, 1)
	if err != nil {
		return nil, err
	}
	measuredB := lgB.DeriveSystem(expected)
	diffsB := core.CompareTuples(expected, measuredB)

	r.Expected = expected
	r.Measured = measuredA
	r.Diffs = append(append([]string{}, prefixed("odns", diffsA)...), prefixed("odoh", diffsB)...)
	v, err := core.Analyze(measuredA)
	if err != nil {
		return nil, err
	}
	r.Verdict = &v
	r.Tables = append(r.Tables, Table{
		Title:   "ODoH variant (measured)",
		Columns: []string{"entity", "tuple"},
		Rows:    tupleRows(measuredB),
	})
	r.Notes = append(r.Notes, "both ODNS and ODoH reproduce the same published table")
	r.Ledger = lgB
	r.Pass = len(r.Diffs) == 0
	return r, nil
}

func prefixed(p string, ds []string) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = p + ": " + d
	}
	return out
}

func tupleRows(s *core.System) [][]string {
	var rows [][]string
	for _, e := range s.Entities {
		rows = append(rows, []string{e.Name, e.Knows.Symbol()})
	}
	return rows
}

// E5PGPP reproduces the §3.2.3 table (with the ▲_H/▲_N decomposition)
// and adds the shuffle-policy ablation the PGPP design motivates.
func E5PGPP(ctx Ctx) (*Result, error) {
	tel := ctx.Tel
	r := &Result{ID: "E5", Title: "Pretty Good Phone Privacy", Section: "3.2.3"}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)
	cfg := pgpp.DefaultSimConfig()
	// One gateway key serves every PGPP simulation: tokens are random,
	// so no row depends on which key signed them.
	key, err := blindrsa.GenerateKey(keyBits)
	if err != nil {
		return nil, err
	}
	cfg.GatewayKey = key

	policies := []struct {
		label  string
		pgppOn bool
		policy pgpp.ShufflePolicy
	}{
		{"baseline cellular", false, pgpp.ShuffleNever},
		{"PGPP", true, pgpp.ShuffleNever},
		{"PGPP", true, pgpp.ShuffleDaily},
		{"PGPP", true, pgpp.ShufflePerAttach},
	}
	deployments := []struct {
		label        string
		users, cells int
	}{
		{"sparse (4 users / 50 cells)", 4, 50},
		{"dense (30 users / 6 cells)", 30, 6},
	}
	// The seven simulations are independent, so they run as parts:
	// part 0 fills the ledger for the table, parts 1-4 score the
	// shuffle policies and parts 5-6 the continuity attack. Each keeps
	// only the accuracies its row prints.
	sims := []pgpp.SimConfig{cfg}
	for _, p := range policies {
		c := cfg
		c.PGPP, c.Policy = p.pgppOn, p.policy
		sims = append(sims, c)
	}
	for _, d := range deployments {
		c := cfg
		c.Users, c.Cells = d.users, d.cells
		c.Policy = pgpp.ShufflePerAttach
		sims = append(sims, c)
	}
	naive := make([]float64, len(sims))
	chained := make([]float64, len(sims))
	err = ctx.Each(len(sims), func(i int) error {
		if i == 0 {
			_, err := pgpp.RunSim(sims[0], lg)
			return err
		}
		res, err := pgpp.RunSim(sims[i], nil)
		if err != nil {
			return err
		}
		log := res.Core.Log()
		naive[i] = pgpp.TrackingAccuracy(log, res.NetIDOwner)
		if i > len(policies) {
			chained[i] = pgpp.ContinuityAttack(log, res.NetIDOwner, sims[i].Cells, 1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	r.Expected = core.PGPP()
	r.Measured = lg.DeriveSystem(r.Expected)
	r.Ledger = lg
	if err := tableExperiment(r); err != nil {
		return nil, err
	}

	// Tracking-accuracy ablation across policies.
	ablation := Table{
		Title:   "Core-log tracking accuracy by identifier policy",
		Columns: []string{"architecture", "shuffle policy", "tracking accuracy"},
	}
	var prev float64 = 2
	for k, p := range policies {
		acc := naive[1+k]
		ablation.Rows = append(ablation.Rows, []string{p.label, p.policy.String(), fmt.Sprintf("%.3f", acc)})
		if acc > prev+1e-9 {
			r.Pass = false
			r.Diffs = append(r.Diffs, fmt.Sprintf("tracking accuracy not monotone: %s/%s = %.3f > previous %.3f",
				p.label, p.policy, acc, prev))
		}
		prev = acc
	}
	r.Tables = append(r.Tables, ablation)

	// Side-channel caveat: spatio-temporal continuity re-links shuffled
	// pseudonyms when the deployment is sparse; density (co-location)
	// is the defense. This is the paper's "up to the limits of what is
	// feasible to reconstruct or infer" qualifier, measured.
	continuity := Table{
		Title:   "Continuity attack on per-attach shuffling: density matters",
		Columns: []string{"deployment", "naive tracking", "continuity-chained tracking"},
	}
	for k, d := range deployments {
		i := 1 + len(policies) + k
		continuity.Rows = append(continuity.Rows, []string{
			d.label, fmt.Sprintf("%.3f", naive[i]), fmt.Sprintf("%.3f", chained[i]),
		})
	}
	r.Tables = append(r.Tables, continuity)
	r.Notes = append(r.Notes, "identifier shuffling alone does not defeat trajectory side channels; co-location density is the actual defense")
	return r, nil
}

// E6MPR reproduces the §3.2.4 Multi-Party Relay table over real
// loopback TCP with nested TLS tunnels, with Privacy Pass tokens gating
// relay 1 (the composition deployed systems use).
func E6MPR(ctx Ctx) (*Result, error) {
	tel := ctx.Tel
	r := &Result{ID: "E6", Title: "Multi-Party Relay", Section: "3.2.4"}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)

	// Relay access is gated on real Privacy Pass tokens (the deployed
	// composition: the first hop authenticates subscribers without
	// learning what they browse). The issuer is not an entity of this
	// table — its own table is E3 — so it is not instrumented here.
	issuer, err := privacypass.NewIssuer("relay-access-issuer", keyBits, nil)
	if err != nil {
		return nil, err
	}
	accessGate := privacypass.NewOrigin("relay1.access", "relay-access-issuer", issuer.PublicKey(), nil)
	validate := func(tok string) error {
		raw, err := base64.StdEncoding.DecodeString(tok)
		if err != nil {
			return fmt.Errorf("bad token encoding: %w", err)
		}
		t, err := token.Unmarshal(raw)
		if err != nil {
			return err
		}
		return accessGate.Redeem("tunnel-client", t, "/tunnel")
	}

	stack, err := mpr.NewStack(lg, validate)
	if err != nil {
		return nil, err
	}
	defer stack.Close()
	cls.RegisterData("connect:"+stack.OriginAddr, "", "", core.Partial)

	// Client connections stay open for the whole measurement window so
	// their ephemeral ports cannot be recycled into relay-side dials
	// (which would corrupt address-classification ground truth).
	var held []net.Conn
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for i := 0; i < 8; i++ {
		who := fmt.Sprintf("user-%d", i)
		path := fmt.Sprintf("/secret/%d", i)
		cls.RegisterData(path, who, "", core.Sensitive)

		// Obtain a fresh access token for this tunnel.
		issuer.Enroll(who)
		ch, err := accessGate.Challenge()
		if err != nil {
			return nil, err
		}
		tok, err := privacypass.NewClient(who, issuer.PublicKey()).ObtainToken(ch, issuer)
		if err != nil {
			return nil, err
		}
		_, conn, err := stack.FetchConn(path, base64.StdEncoding.EncodeToString(tok.Marshal()), "", func(localAddr string) {
			cls.RegisterIdentity(localAddr, who, "", core.Sensitive)
		})
		if conn != nil {
			held = append(held, conn)
		}
		if err != nil {
			return nil, err
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("8 fetches, relay1 tunnels=%d relay2 tunnels=%d, token-gated first hop", stack.Relay1.Tunnels(), stack.Relay2.Tunnels()))
	r.Expected = core.MPR()
	r.Measured = lg.DeriveSystem(r.Expected)
	r.Ledger = lg
	return r, tableExperiment(r)
}

// E7PPM reproduces the §3.2.5 private aggregate statistics table and
// records correctness of the aggregate.
func E7PPM(ctx Ctx) (*Result, error) {
	tel := ctx.Tel
	r := &Result{ID: "E7", Title: "Private aggregate statistics (PPM/Prio)", Section: "3.2.5"}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)
	task := ppm.Task{ID: "e7-sum", Type: ppm.TaskSum, Bits: 8}
	sys := ppm.NewSystem(task, 2, lg)

	const clients = 256
	meter := workload.NewTelemetry(7, 200)
	var want uint64
	for i := 0; i < clients; i++ {
		who := fmt.Sprintf("client-%03d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		v := meter.Next()
		want += v
		if _, err := sys.Upload(who, v); err != nil {
			return nil, err
		}
	}
	acc, rej := sys.VerifyAll()
	got, err := sys.Aggregate()
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%d reports accepted, %d rejected; aggregate %d (want %d)", acc, rej, got[0], want))
	if got[0] != want || rej != 0 {
		r.Diffs = append(r.Diffs, fmt.Sprintf("aggregate incorrect: got %d want %d (rejected %d)", got[0], want, rej))
	}

	r.Expected = core.PPM(2)
	r.Measured = lg.DeriveSystem(r.Expected)
	r.Ledger = lg
	if err := tableExperiment(r); err != nil {
		return nil, err
	}
	r.Pass = r.Pass && got[0] == want
	return r, nil
}

// E8VPN reproduces the §3.3 cautionary-tale table: the VPN server
// measures coupled and the verdict is NOT decoupled.
func E8VPN(ctx Ctx) (*Result, error) {
	tel := ctx.Tel
	r := &Result{ID: "E8", Title: "Centralized VPN (cautionary tale)", Section: "3.3"}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)
	srv := vpn.NewServer(lg)
	vpnAddr, err := srv.Start()
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	origin := vpn.NewOrigin(lg)
	originAddr, err := origin.Start()
	if err != nil {
		return nil, err
	}
	defer origin.Close()

	// Hold client connections open across the measurement window (see
	// E6 for why: ephemeral-port reuse vs. classifier ground truth).
	var held []net.Conn
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for i := 0; i < 8; i++ {
		who := fmt.Sprintf("user-%d", i)
		url := fmt.Sprintf("http://%s/secret/%d", originAddr, i)
		cls.RegisterData(url, who, "", core.Sensitive)
		_, conn, err := vpn.FetchConn(vpnAddr, url, func(localAddr string) {
			cls.RegisterIdentity(localAddr, who, "", core.Sensitive)
		})
		if conn != nil {
			held = append(held, conn)
		}
		if err != nil {
			return nil, err
		}
	}
	r.Expected = core.VPN()
	r.Measured = lg.DeriveSystem(r.Expected)
	r.Ledger = lg
	if err := tableExperiment(r); err != nil {
		return nil, err
	}
	// For the cautionary tale, success additionally requires the
	// verdict to be NOT decoupled at degree 1.
	if r.Verdict.Decoupled || r.Verdict.Degree != 1 {
		r.Pass = false
		r.Diffs = append(r.Diffs, fmt.Sprintf("expected NOT-decoupled degree-1 verdict, got %s", r.Verdict))
	}
	return r, nil
}

// E9ECH reproduces the §3.3 ECH discussion: the network's view improves
// but the system remains coupled at the server.
func E9ECH(ctx Ctx) (*Result, error) {
	tel := ctx.Tel
	r := &Result{ID: "E9", Title: "TLS Encrypted ClientHello (cautionary tale)", Section: "3.3"}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)
	srv, err := ech.NewServer(lg)
	if err != nil {
		return nil, err
	}
	network := ech.NewNetwork(lg)
	for i := 0; i < 8; i++ {
		who := fmt.Sprintf("client-%d", i)
		addr := fmt.Sprintf("10.0.0.%d", i)
		req := fmt.Sprintf("GET /records/%d", i)
		cls.RegisterIdentity(addr, who, "", core.Sensitive)
		cls.RegisterData("sni:private.example", who, "", core.Sensitive)
		cls.RegisterData(req, who, "", core.Sensitive)
		if _, err := ech.Connect(network, srv, addr, "private.example", req, true); err != nil {
			return nil, err
		}
	}
	r.Expected = core.ECH()
	r.Measured = lg.DeriveSystem(r.Expected)
	r.Ledger = lg
	if err := tableExperiment(r); err != nil {
		return nil, err
	}
	if r.Verdict.Decoupled {
		r.Pass = false
		r.Diffs = append(r.Diffs, "ECH measured as decoupled; it must not be")
	}
	return r, nil
}
