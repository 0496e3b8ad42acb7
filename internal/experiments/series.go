package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/mixnet"
	"decoupling/internal/onion"
	"decoupling/internal/ppm"
	"decoupling/internal/transport"
	"decoupling/internal/workload"
)

// E10Degrees quantifies §4.2 "Degrees of Decoupling": the privacy gain
// (minimum colluding-coalition size) and the cost (latency, bytes) as
// hops/aggregators are added. The paper's claim is qualitative — cost
// grows with degree and eventually "offers limited return in privacy at
// great cost" — so the reproduction asserts the monotone shape.
func E10Degrees(ctx Ctx) (*Result, error) {
	r := &Result{ID: "E10", Title: "Degrees of decoupling (cost vs. benefit)", Section: "4.2"}

	// --- Relay path length: onion circuits with 1..5 hops ---
	relayTable := Table{
		Title:   "Relay hops vs. round-trip time and collusion threshold",
		Columns: []string{"hops", "RTT (virtual)", "min coalition to re-couple"},
	}
	var prevRTT time.Duration
	var prevDegree int
	for hops := 1; hops <= 5; hops++ {
		rtt, degree, elapsed, err := onionRun(ctx, hops)
		if err != nil {
			return nil, err
		}
		r.VirtualElapsed += elapsed
		relayTable.Rows = append(relayTable.Rows, []string{
			fmt.Sprint(hops), rtt.String(), fmt.Sprint(degree),
		})
		if rtt <= prevRTT {
			r.Diffs = append(r.Diffs, fmt.Sprintf("RTT not increasing at %d hops", hops))
		}
		if degree < prevDegree {
			r.Diffs = append(r.Diffs, fmt.Sprintf("collusion threshold decreased at %d hops", hops))
		}
		prevRTT, prevDegree = rtt, degree
	}
	r.Tables = append(r.Tables, relayTable)

	// --- Aggregator count: PPM with 1..5 aggregators ---
	aggTable := Table{
		Title:   "PPM aggregators vs. upload bytes and collusion threshold",
		Columns: []string{"aggregators", "bytes/report", "min coalition to reconstruct"},
	}
	task := ppm.Task{ID: "e10", Type: ppm.TaskHistogram, Buckets: 8}
	prevBytes := 0
	for n := 1; n <= 5; n++ {
		shares, err := ppm.BuildReport(task, 3, n)
		if err != nil {
			return nil, err
		}
		bytes := 0
		for _, s := range shares {
			bytes += len(s.Marshal())
		}
		v, err := core.Analyze(core.PPM(n))
		if err != nil {
			return nil, err
		}
		aggTable.Rows = append(aggTable.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(bytes), fmt.Sprint(v.Degree),
		})
		if bytes <= prevBytes {
			r.Diffs = append(r.Diffs, fmt.Sprintf("upload bytes not increasing at %d aggregators", n))
		}
		if v.Degree != n {
			r.Diffs = append(r.Diffs, fmt.Sprintf("PPM(%d) degree = %d, want %d", n, v.Degree, n))
		}
		prevBytes = bytes
	}
	r.Tables = append(r.Tables, aggTable)
	r.Notes = append(r.Notes,
		"privacy gain (coalition size) and cost (RTT, bytes) both grow ~linearly with degree — the paper's cost/benefit tradeoff",
		"1 hop / 1 aggregator is the degenerate VPN-like case: a single party re-couples")
	r.Pass = len(r.Diffs) == 0
	return r, nil
}

// onionRun measures the request RTT through an n-hop circuit and the
// minimum coalition of relays able to re-couple (from the measured
// ledger structure). It also reports the virtual time the run consumed.
func onionRun(ctx Ctx, hops int) (time.Duration, int, time.Duration, error) {
	tel := ctx.Tel
	defer tel.Phase("hops")()
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)
	net := ctx.NewNet(int64(hops))
	net.Instrument(tel)

	infos, err := newOnion(net, lg, hops, 128, tel)
	if err != nil {
		return 0, 0, 0, err
	}
	cls.RegisterIdentity("alice", "alice", "", core.Sensitive)
	cls.RegisterData("GET /secret", "alice", "", core.Sensitive)

	client := onion.NewClient(net, "alice")
	circ, err := client.BuildCircuit(infos)
	if err != nil {
		return 0, 0, 0, err
	}
	net.Run()
	start := net.Now()
	if err := circ.Request("origin", []byte("GET /secret")); err != nil {
		return 0, 0, 0, err
	}
	net.Run()
	resps := client.Responses()
	if len(resps) != 1 {
		return 0, 0, 0, fmt.Errorf("onionRun(%d): %d responses", hops, len(resps))
	}
	rtt := resps[0].Time - start

	// Build a measured system: user + relays (+ origin) with tuples and
	// links derived from the ledger, and analyze the coalition degree.
	template := &core.System{Name: fmt.Sprintf("onion %d hops", hops), Section: "3.1.2"}
	template.Entities = append(template.Entities, core.Entity{
		Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()},
	})
	for i := 1; i <= hops; i++ {
		template.Entities = append(template.Entities, core.Entity{
			Name: fmt.Sprintf("Relay %d", i), Knows: core.Tuple{core.NonSensID(), core.NonSensData()},
		})
	}
	template.Entities = append(template.Entities, core.Entity{
		Name: "Origin", Knows: core.Tuple{core.NonSensID(), core.NonSensData()},
	})
	measured := lg.DeriveSystem(template)
	v, err := core.Analyze(measured)
	if err != nil {
		return 0, 0, 0, err
	}
	return rtt, v.Degree, net.Now(), nil
}

// E11Striping reproduces the §5.1 argument: distributing DNS queries
// across k resolvers limits the profile any single resolver can build.
func E11Striping(ctx Ctx) (*Result, error) {
	tel := ctx.Tel
	r := &Result{ID: "E11", Title: "Resolver striping (§5.1)", Section: "5.1"}

	const users, queriesPerUser, nameCount = 20, 50, 40
	table := Table{
		Title:   "Queries striped across k resolvers",
		Columns: []string{"k", "avg profile completeness", "max profile completeness", "avg normalized entropy of per-resolver view"},
	}
	prevAvg := 2.0
	for _, k := range []int{1, 2, 4, 8} {
		endPhase := tel.Phase("stripe")
		zone := dns.NewZone("test")
		var allNames []string
		for i := 0; i < nameCount; i++ {
			n := fmt.Sprintf("site%02d.test", i)
			allNames = append(allNames, n)
			zone.Add(dnswire.A(n, 300, [4]byte{10, 0, 0, byte(i)}))
		}
		auth := &dns.AuthServer{Name: "auth", Zones: []*dns.Zone{zone}}
		resolvers := make([]*dns.Resolver, k)
		for i := range resolvers {
			resolvers[i] = dns.NewResolver(fmt.Sprintf("resolver-%d", i), []dns.Authority{auth}, nil, nil)
		}
		browsing, err := workload.NewBrowsing(int64(k), nameCount, 1.3)
		if err != nil {
			return nil, err
		}
		browsing.Names = allNames // query the zone's names

		// Ground truth: each user's query stream. Queries go through the
		// library's striping client (§5.1's mechanism) over the shared
		// Zipf browsing workload.
		userNames := map[string][]string{}
		for u := 0; u < users; u++ {
			who := fmt.Sprintf("user-%02d", u)
			userNames[who] = browsing.Stream(u, queriesPerUser)
			sc, err := dns.NewStripedClient(who, resolvers, dns.StripeRandom, int64(k*1000+u))
			if err != nil {
				return nil, err
			}
			for q, name := range userNames[who] {
				sc.Resolve(dnswire.NewQuery(uint16(q), name, dnswire.TypeA))
			}
		}

		// Per-resolver profile completeness: fraction of a user's
		// distinct names visible in one resolver's log.
		var sum, max float64
		var count int
		for who, names := range userNames {
			for _, frac := range dns.ProfileCompleteness(who, resolvers, names) {
				sum += frac
				count++
				if frac > max {
					max = frac
				}
			}
		}
		var entropySum float64
		for _, res := range resolvers {
			nameCounts := map[string]int{}
			for _, e := range res.Log() {
				nameCounts[e.Name]++
			}
			entropySum += adversary.NormalizedEntropy(nameCounts)
		}
		avg := sum / float64(count)
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(k), fmt.Sprintf("%.3f", avg), fmt.Sprintf("%.3f", max),
			fmt.Sprintf("%.3f", entropySum/float64(k)),
		})
		if avg >= prevAvg {
			r.Diffs = append(r.Diffs, fmt.Sprintf("profile completeness did not fall at k=%d (%.3f >= %.3f)", k, avg, prevAvg))
		}
		prevAvg = avg
		endPhase()
	}
	r.Tables = append(r.Tables, table)
	r.Notes = append(r.Notes, "k=1 is the single-resolver baseline: the operator sees the complete profile")
	r.Pass = len(r.Diffs) == 0
	return r, nil
}

// E12TrafficAnalysis reproduces §4.3: the timing/size traffic-analysis
// attacks and the cost of the defenses (batching latency, padding
// bytes, chaff bandwidth) — the anonymity-trilemma shape.
func E12TrafficAnalysis(ctx Ctx) (*Result, error) {
	r := &Result{ID: "E12", Title: "Traffic analysis and defenses (§4.3)", Section: "4.3"}

	// --- Timing attack vs. batch size ---
	const senders = 64
	timing := Table{
		Title:   "Mix batching: rank-order timing attack vs. latency cost",
		Columns: []string{"batch threshold", "linkage accuracy", "mean delivery latency"},
	}
	var accs []float64
	for _, batch := range []int{1, 4, 16, 64} {
		acc, lat, elapsed, err := mixTimingRun(ctx, batch, senders, false)
		if err != nil {
			return nil, err
		}
		r.VirtualElapsed += elapsed
		accs = append(accs, acc)
		timing.Rows = append(timing.Rows, []string{
			fmt.Sprint(batch), fmt.Sprintf("%.3f", acc), lat.String(),
		})
	}
	if accs[0] != 1.0 {
		r.Diffs = append(r.Diffs, fmt.Sprintf("no-batching timing accuracy = %.3f, want 1.0", accs[0]))
	}
	if accs[len(accs)-1] > 0.2 {
		r.Diffs = append(r.Diffs, fmt.Sprintf("full-batch timing accuracy = %.3f, want <= 0.2", accs[len(accs)-1]))
	}
	r.Tables = append(r.Tables, timing)

	// --- Size attack vs. padding ---
	size := Table{
		Title:   "Message padding: rank-order size attack vs. bandwidth cost",
		Columns: []string{"padding", "linkage accuracy", "bytes on first hop"},
	}
	for _, padded := range []bool{false, true} {
		acc, bytes, err := mixSizeRun(ctx, 32, padded)
		if err != nil {
			return nil, err
		}
		label := "none"
		if padded {
			label = "fixed 512 B"
		}
		size.Rows = append(size.Rows, []string{label, fmt.Sprintf("%.3f", acc), fmt.Sprint(bytes)})
		if !padded && acc < 0.9 {
			r.Diffs = append(r.Diffs, fmt.Sprintf("unpadded size attack accuracy = %.3f, want >= 0.9", acc))
		}
		if padded && acc > 0.2 {
			r.Diffs = append(r.Diffs, fmt.Sprintf("padded size attack accuracy = %.3f, want <= 0.2", acc))
		}
	}
	r.Tables = append(r.Tables, size)

	// --- Chaff bandwidth overhead ---
	chaff := Table{
		Title:   "Onion chaff: bandwidth overhead per data request",
		Columns: []string{"chaff cells per request", "total cells on wire", "overhead factor"},
	}
	base := 0
	for _, rate := range []int{0, 1, 2, 4} {
		cells, err := onionChaffRun(ctx, rate)
		if err != nil {
			return nil, err
		}
		if rate == 0 {
			base = cells
		}
		chaff.Rows = append(chaff.Rows, []string{
			fmt.Sprint(rate), fmt.Sprint(cells), fmt.Sprintf("%.2fx", float64(cells)/float64(base)),
		})
	}
	r.Tables = append(r.Tables, chaff)

	// --- Long-term intersection attack vs. cover traffic ---
	disclosure := Table{
		Title:   "Statistical disclosure over 400 batch rounds: cover traffic as defense",
		Columns: []string{"target behaviour", "partner identified", "top score"},
	}
	for _, cover := range []bool{false, true} {
		top, score := disclosureRun(cover)
		label := "sends intermittently"
		if cover {
			label = "constant-rate cover traffic"
		}
		identified := "no"
		if top == "bob" && score > 0.3 {
			identified = "yes"
		}
		disclosure.Rows = append(disclosure.Rows, []string{label, identified, fmt.Sprintf("%.3f", score)})
		if !cover && identified != "yes" {
			r.Diffs = append(r.Diffs, fmt.Sprintf("intermittent sender not disclosed (top %s at %.3f)", top, score))
		}
		if cover && score > 0.1 {
			r.Diffs = append(r.Diffs, fmt.Sprintf("cover traffic failed: top score %.3f", score))
		}
	}
	r.Tables = append(r.Tables, disclosure)
	r.Notes = append(r.Notes,
		"strong anonymity (low linkage) costs latency (batching) or bandwidth (padding, chaff) — 'choose two' (Das et al., the paper's [10])",
		"batching hides per-message correspondence but not long-term participation; constant-rate cover traffic defeats the intersection attack at full-time bandwidth cost")
	r.Pass = len(r.Diffs) == 0
	return r, nil
}

// disclosureRun synthesizes 400 observed batch rounds and mounts the
// statistical disclosure attack on "alice", whose partner is "bob".
// With cover, alice participates every round and her real message is a
// small fraction; without, she participates only when messaging bob.
func disclosureRun(cover bool) (topReceiver string, topScore float64) {
	rng := rand.New(rand.NewSource(77))
	var rounds []adversary.Round
	for i := 0; i < 400; i++ {
		var r adversary.Round
		switch {
		case cover:
			r.Senders = append(r.Senders, "alice")
			if i%8 == 0 {
				r.Receivers = append(r.Receivers, "bob")
			} else {
				r.Receivers = append(r.Receivers, fmt.Sprintf("recv%d", rng.Intn(8)))
			}
		case i%2 == 0:
			r.Senders = append(r.Senders, "alice")
			r.Receivers = append(r.Receivers, "bob")
		}
		for j := 0; j < 3; j++ {
			r.Senders = append(r.Senders, fmt.Sprintf("noise%d", rng.Intn(20)))
			r.Receivers = append(r.Receivers, fmt.Sprintf("recv%d", rng.Intn(8)))
		}
		rounds = append(rounds, r)
	}
	scored := adversary.StatisticalDisclosure(rounds, "alice")
	if len(scored) == 0 {
		return "", 0
	}
	return scored[0].Receiver, scored[0].Score
}

// mixTimingRun stages senders 1ms apart through a 1-mix net with the
// given batch threshold and runs the rank-order timing attack.
func mixTimingRun(ctx Ctx, batch, senders int, padded bool) (accuracy float64, meanLatency time.Duration, elapsed time.Duration, err error) {
	tel := ctx.Tel
	defer tel.Phase("batch")()
	net := ctx.NewNet(int64(batch) + 100)
	net.Instrument(tel)
	c, err := newCascade(net, nil, 1, batch, padded, tel, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	var entries []adversary.Event
	var sendTimes []time.Duration
	var sendErrs []error
	for i := 0; i < senders; i++ {
		who := fmt.Sprintf("s%02d", i)
		at := time.Duration(i) * time.Millisecond
		s := &mixnet.Sender{Addr: transport.Addr(who)}
		if padded {
			s.PadTo = 512
		}
		msg := []byte(who)
		net.After(at, func() {
			if serr := s.Send(net, c.route, c.rcv.Info(), msg); serr != nil {
				sendErrs = append(sendErrs, fmt.Errorf("mixTimingRun: send %s: %w", who, serr))
			}
		})
		entries = append(entries, adversary.Event{Time: at, Subject: who})
		sendTimes = append(sendTimes, at)
	}
	net.Run()
	if len(sendErrs) > 0 {
		return 0, 0, 0, sendErrs[0]
	}
	inbox := c.rcv.Inbox()
	if len(inbox) != senders {
		return 0, 0, 0, fmt.Errorf("mixTimingRun: delivered %d of %d", len(inbox), senders)
	}
	var exits []adversary.Event
	var totalLatency time.Duration
	for i, got := range inbox {
		exits = append(exits, adversary.Event{Time: got.Time, Subject: string(got.Body)})
		totalLatency += got.Time - sendTimes[i%len(sendTimes)]
	}
	correct, total := adversary.TimingCorrelate(entries, exits)
	return float64(correct) / float64(total), totalLatency / time.Duration(senders), net.Now(), nil
}

// mixSizeRun sends distinct-length messages through a fully batched mix
// and mounts the rank-order size attack on the global capture.
func mixSizeRun(ctx Ctx, senders int, padded bool) (accuracy float64, firstHopBytes int, err error) {
	tel := ctx.Tel
	defer tel.Phase("padding")()
	net := ctx.NewNet(7)
	net.Instrument(tel)
	c, err := newCascade(net, nil, 1, senders, padded, tel, nil)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < senders; i++ {
		who := fmt.Sprintf("s%02d", i)
		s := &mixnet.Sender{Addr: transport.Addr(who)}
		if padded {
			s.PadTo = 512
		}
		// Distinct sizes: message length 10 + 7i, under the pad budget.
		msg := make([]byte, 10+7*i)
		copy(msg, who)
		if err := s.Send(net, c.route, c.rcv.Info(), msg); err != nil {
			return 0, 0, err
		}
	}
	net.Run()

	// The observer's view: entry events keyed by sender with size; exit
	// events attributed via the receiver inbox order aligned with the
	// exit capture records.
	var entries, exits []adversary.Event
	var exitRecords []transport.PacketRecord
	for _, rec := range net.Capture() {
		switch {
		case rec.Dst == "mix1":
			entries = append(entries, adversary.Event{Time: time.Duration(rec.Size), Subject: string(rec.Src)})
			firstHopBytes += rec.Size
		case rec.Src == "mix1" && rec.Dst == "receiver":
			exitRecords = append(exitRecords, rec)
		}
	}
	inbox := c.rcv.Inbox()
	if len(inbox) != len(exitRecords) {
		return 0, 0, fmt.Errorf("mixSizeRun: %d inbox vs %d exit records", len(inbox), len(exitRecords))
	}
	for i, rec := range exitRecords {
		subject := string(inbox[i].Body[:3])
		exits = append(exits, adversary.Event{Time: time.Duration(rec.Size), Subject: subject})
	}
	correct, total := adversary.TimingCorrelate(entries, exits) // rank order on size
	return float64(correct) / float64(total), firstHopBytes, nil
}

// onionChaffRun counts cells on the wire for one data request plus rate
// chaff cells through a 3-hop circuit.
func onionChaffRun(ctx Ctx, rate int) (cells int, err error) {
	tel := ctx.Tel
	defer tel.Phase("chaff")()
	net := ctx.NewNet(int64(rate) + 5)
	net.Instrument(tel)
	infos, err := newOnion(net, nil, 3, 64, tel)
	if err != nil {
		return 0, err
	}
	client := onion.NewClient(net, "alice")
	circ, err := client.BuildCircuit(infos)
	if err != nil {
		return 0, err
	}
	net.Run()
	pre := len(net.Capture())
	if err := circ.Request("origin", []byte("GET /x")); err != nil {
		return 0, err
	}
	for i := 0; i < rate; i++ {
		if err := circ.SendChaff(); err != nil {
			return 0, err
		}
	}
	net.Run()
	for _, rec := range net.Capture()[pre:] {
		if rec.Size == 1+onion.CellSize {
			cells++
		}
	}
	return cells, nil
}
