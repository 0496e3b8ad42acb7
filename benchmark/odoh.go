package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/odoh"
	"decoupling/internal/workload"
)

// The ODoH workloads run odoh.Client → a benchmark HTTP proxy shard →
// odoh.Proxy.Forward → odoh.Target → dns.AuthServer over loopback HTTP,
// with the ledger and classifier on, in a closed loop: each client
// goroutine sends its next query when the previous answer arrives. Each
// round builds a fresh stack and ledger, so every round admits the same
// number of observations and the heap and audit numbers do not grow
// with how fast the run went.

// clientHeader carries the logical client identity to the proxy shard:
// ground truth needs stable client names, and a keep-alive connection's
// address is shared by every logical client its goroutine plays.
const clientHeader = "X-Bench-Client"

type odohQuery struct {
	client int
	name   string
}

// odohSessions generates one round's input: sessions of consecutive
// queries by one logical client, log-normal lengths (median 3, σ 0.8),
// names Zipf(1.2) over 100 names, cut at n queries in total.
func odohSessions(seed int64, round, n int) ([][]odohQuery, []string, error) {
	stream := seed*1_000_003 + int64(round)
	browsing, err := workload.NewBrowsing(stream, 100, 1.2)
	if err != nil {
		return nil, nil, err
	}
	sessions, err := workload.NewSessions(stream+1, 3, 0.8)
	if err != nil {
		return nil, nil, err
	}
	var out [][]odohQuery
	for c, total := 0, 0; total < n; c++ {
		s := make([]odohQuery, min(sessions.Next(), n-total))
		for j := range s {
			s[j] = odohQuery{c, browsing.Next(c)}
		}
		out = append(out, s)
		total += len(s)
	}
	return out, browsing.Names, nil
}

func clientName(c int) string { return fmt.Sprintf("client%06d", c) }

// odohShard is one proxy endpoint of the single logical proxy operator,
// serving one client goroutine over one keep-alive connection. Each
// shard has its own odoh.Proxy and odoh.Target; all share the operator
// names and the round's ledger, so the derived tuples are those of one
// proxy and one target.
type odohShard struct {
	proxy      *odoh.Proxy
	keyID, pub []byte
	url        string
	srv        *http.Server
	served     chan struct{}
	client     *http.Client

	// Traced runs only. The closed loop keeps one request in flight per
	// shard, so the handler and the origin wrapper find the request and
	// their parent span here. Recording starts after the warm-up, so the
	// spans cover exactly the timed queries.
	tr                         *tracer
	on                         atomic.Bool
	req, forwardSpan, callSpan atomic.Uint64
}

func newShard(tr *tracer, st *odohStack) (*odohShard, error) {
	sh := &odohShard{tr: tr, served: make(chan struct{})}
	var upstream dns.Authority = st.origin
	if tr != nil {
		upstream = timedAuthority{st.origin, sh}
	}
	target, err := odoh.NewTarget(odoh.TargetName, upstream, st.lg)
	if err != nil {
		return nil, err
	}
	sh.keyID, sh.pub = target.KeyConfig()
	sh.proxy = odoh.NewProxy(odoh.ProxyName, target, st.lg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("proxy shard: %w", err)
	}
	sh.url = "http://" + ln.Addr().String() + "/proxy"
	sh.srv = &http.Server{Handler: sh}
	go func() {
		defer close(sh.served)
		sh.srv.Serve(ln)
	}()
	sh.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return sh, nil
}

func (sh *odohShard) close() {
	sh.client.CloseIdleConnections()
	sh.srv.Close()
	<-sh.served
}

// tracing returns the shard's tracer once recording has started: nil
// during the warm-up and in untraced runs.
func (sh *odohShard) tracing() *tracer {
	if sh.on.Load() {
		return sh.tr
	}
	return nil
}

// ServeHTTP is the shard's POST /proxy endpoint.
func (sh *odohShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	who := r.Header.Get(clientHeader)
	var resp []byte
	if tr := sh.tracing(); tr == nil {
		resp, err = sh.proxy.Forward(who, body)
	} else {
		id, start := tr.id(), tr.now()
		sh.callSpan.Store(id)
		resp, err = sh.proxy.Forward(who, body)
		tr.add(id, sh.forwardSpan.Load(), sh.req.Load(), "odoh.proxy_target", start, tr.now())
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Write(resp)
}

// post is the client half of the shard protocol, an odoh.ForwardFunc.
func (sh *odohShard) post(who string, raw []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, sh.url, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/oblivious-dns-message")
	req.Header.Set(clientHeader, who)
	resp, err := sh.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("proxy returned %s: %s", resp.Status, out)
	}
	return out, nil
}

// query resolves name for c through this shard; traced, it records the
// client call, the HTTP round trip inside it, and (through ServeHTTP and
// timedAuthority) the proxy+target call and the origin inside that.
func (sh *odohShard) query(c *odoh.Client, name string) (*dnswire.Message, error) {
	tr := sh.tracing()
	if tr == nil {
		return c.Query(name, dnswire.TypeA, sh.post)
	}
	root, start := tr.id(), tr.now()
	sh.req.Store(root)
	resp, err := c.Query(name, dnswire.TypeA, func(who string, raw []byte) ([]byte, error) {
		id, s := tr.id(), tr.now()
		sh.forwardSpan.Store(id)
		out, err := sh.post(who, raw)
		tr.add(id, root, root, "http.roundtrip", s, tr.now())
		return out, err
	})
	tr.add(root, 0, root, "odoh.client", start, tr.now())
	return resp, err
}

// timedAuthority is the dns.Authority the target gets in traced runs:
// it times the origin's Handle.
type timedAuthority struct {
	dns.Authority
	sh *odohShard
}

func (a timedAuthority) Handle(from string, q *dnswire.Message) *dnswire.Message {
	tr := a.sh.tracing()
	if tr == nil {
		return a.Authority.Handle(from, q)
	}
	id, start := tr.id(), tr.now()
	resp := a.Authority.Handle(from, q)
	tr.add(id, a.sh.callSpan.Load(), a.sh.req.Load(), "dns.origin", start, tr.now())
	return resp
}

// checkAnswer holds an answer to NOERROR with exactly the zone's A
// record for the queried name.
func checkAnswer(resp *dnswire.Message, name string, want [4]byte) error {
	switch {
	case resp.RCode != dnswire.RCodeNoError:
		return fmt.Errorf("%s: rcode %v", name, resp.RCode)
	case len(resp.Answers) != 1:
		return fmt.Errorf("%s: %d answers", name, len(resp.Answers))
	}
	a := resp.Answers[0]
	if a.Type != dnswire.TypeA || dnswire.CanonicalName(a.Name) != dnswire.CanonicalName(name) || !bytes.Equal(a.Data, want[:]) {
		return fmt.Errorf("%s: answer %s %v %v, want A %v", name, a.Name, a.Type, a.Data, want)
	}
	return nil
}

// audit runs the full decoupling audit on a ledger: derive the measured
// system, compare its tuples with the paper's, and analyze it. It
// returns the time the derive took and the time the comparison and
// analysis took.
func audit(lg *ledger.Ledger) (derive, analyze time.Duration, err error) {
	start := time.Now()
	expected := core.ObliviousDNS()
	measured := lg.DeriveSystem(expected)
	derive = time.Since(start)
	diffs := core.CompareTuples(expected, measured)
	v, err := core.Analyze(measured)
	analyze = time.Since(start) - derive
	switch {
	case err != nil:
	case len(diffs) > 0:
		err = fmt.Errorf("%d tuple diffs, first: %s", len(diffs), diffs[0])
	case !v.Decoupled:
		err = fmt.Errorf("verdict %s", v)
	}
	return derive, analyze, err
}

// drive plays sessions through the shards in a closed loop, one
// goroutine per shard pulling whole sessions, and returns the completed
// ops in completion order plus the failed answers. after, if set, runs
// after each completed query with the running count.
func drive(shards []*odohShard, sessions [][]odohQuery, want map[string][4]byte, t0 time.Time, after func(n uint64)) ([]op, []error) {
	var next, done atomic.Uint64
	var mu sync.Mutex
	var ops []op
	var errs []error
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *odohShard) {
			defer wg.Done()
			var mine []op
			var bad []error
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sessions) {
					break
				}
				s := sessions[i]
				c := odoh.NewClient(clientName(s[0].client), sh.keyID, sh.pub)
				for _, q := range s {
					start := time.Now()
					resp, err := sh.query(c, q.name)
					end := time.Now()
					if err == nil {
						err = checkAnswer(resp, q.name, want[q.name])
					}
					if err != nil {
						bad = append(bad, fmt.Errorf("odoh answer: %w", err))
					}
					mine = append(mine, op{done: end.Sub(t0), latency: end.Sub(start)})
					if n := done.Add(1); after != nil {
						after(n)
					}
				}
			}
			mu.Lock()
			ops = append(ops, mine...)
			errs = append(errs, bad...)
			mu.Unlock()
		}(sh)
	}
	wg.Wait()
	sort.Slice(ops, func(i, j int) bool { return ops[i].done < ops[j].done })
	return ops, errs
}

// liveAuditor runs the full audit every auditEvery completed queries
// while traffic continues, timing each epoch from its trigger to its
// verdict.
type liveAuditor struct {
	trig chan time.Time
	wg   sync.WaitGroup
	lags []float64 // ms
	errs []error
}

func startAuditor(lg *ledger.Ledger) *liveAuditor {
	// One pending epoch: a trigger that finds the auditor busy merges
	// with the one already waiting rather than queueing a backlog.
	a := &liveAuditor{trig: make(chan time.Time, 1)}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for t := range a.trig {
			_, _, err := audit(lg)
			a.lags = append(a.lags, ms(time.Since(t)))
			if err != nil {
				a.errs = append(a.errs, fmt.Errorf("live audit epoch: %w", err))
			}
		}
	}()
	return a
}

func (a *liveAuditor) trigger() {
	select {
	case a.trig <- time.Now():
	default:
	}
}

func (a *liveAuditor) stop() {
	close(a.trig)
	a.wg.Wait()
}

// runODoH runs rounds until the measured time is spent.
func runODoH(cfg config, tr *tracer, live bool) (*outcome, error) {
	out := &outcome{}
	start := time.Now()
	var audits, lags []float64
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		a, l, err := odohRound(cfg, tr, live, round, out)
		if err != nil {
			return nil, err
		}
		audits = append(audits, a...)
		lags = append(lags, l...)
	}
	out.note("audit_ms", median(audits), "ms")
	if live {
		out.note("verdict_lag_ms", median(lags), "ms")
		out.note("audit_epochs", float64(len(lags)), "count")
	}
	if out.ops() == 0 {
		return nil, errNoWork
	}
	return out, nil
}

// odohStack is one round's ODoH system behind the proxies and targets:
// the ground truth in the ledger's classifier, the zone, the ledger and
// the origin.
type odohStack struct {
	lg     *ledger.Ledger
	origin *dns.AuthServer
	want   map[string][4]byte // each name's A record
}

// newODoHStack registers the operators, the sessions' clients and the
// names as ground truth, and builds a zone with one A record per name.
// plantWrongAnswer makes the zone answer the first name wrongly.
func newODoHStack(sessions [][]odohQuery, names []string, plantWrongAnswer bool) (*odohStack, error) {
	cls := ledger.NewClassifier()
	for _, n := range []string{odoh.ProxyName, odoh.TargetName, "Origin"} {
		cls.RegisterIdentity(n, "", "", core.NonSensitive)
	}
	zone := dns.NewZone("test")
	want := map[string][4]byte{}
	for i, name := range names {
		addr := [4]byte{198, 51, 100, byte(i)}
		want[name] = addr
		if plantWrongAnswer && i == 0 {
			addr = [4]byte{203, 0, 113, 1}
		}
		if err := zone.Add(dnswire.A(name, 300, addr)); err != nil {
			return nil, err
		}
		cls.RegisterData(dnswire.CanonicalName(name), "", "", core.Sensitive)
	}
	for c := range sessions {
		who := clientName(c)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
	}
	lg := ledger.New(cls, nil)
	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{zone}, Ledger: lg}
	return &odohStack{lg: lg, origin: origin, want: want}, nil
}

// postLoadAudits runs the full audit repeats times on a filled ledger,
// failing out on any audit that is not clean, and records the derive and
// analysis times in out.ledger. It returns each audit's time in ms.
func postLoadAudits(out *outcome, lg *ledger.Ledger, repeats int) []float64 {
	var audits []float64
	for i := 0; i < repeats; i++ {
		derive, analyze, err := audit(lg)
		if err != nil {
			out.fail("post-load audit: %v", err)
		}
		audits = append(audits, ms(derive+analyze))
		out.ledger.derive = append(out.ledger.derive, ms(derive))
		out.ledger.analyze = append(out.ledger.analyze, us(analyze))
	}
	return audits
}

// odohRound sets up a fresh stack, warms it, runs the timed load, and
// audits. It returns the post-load audit times and the live epochs'
// verdict lags, in ms. A traced round also prices the ledger layer on
// the round's own ledger.
func odohRound(cfg config, tr *tracer, live bool, round int, out *outcome) (audits, lags []float64, err error) {
	sessions, names, err := odohSessions(cfg.seed, round, cfg.odohWarmup+cfg.odohQueries)
	if err != nil {
		return nil, nil, err
	}
	setupStart := time.Now()
	st, err := newODoHStack(sessions, names, cfg.plantWrongAnswer)
	if err != nil {
		return nil, nil, err
	}
	var shards []*odohShard
	defer func() {
		for _, sh := range shards {
			sh.close()
		}
	}()
	for w := 0; w < clients; w++ {
		sh, err := newShard(tr, st)
		if err != nil {
			return nil, nil, err
		}
		shards = append(shards, sh)
	}

	// The first sessions, about odohWarmup queries, open the connections
	// and fill lazy state; they count as set-up and are not traced.
	split, warm := 0, 0
	for split < len(sessions) && warm < cfg.odohWarmup {
		warm += len(sessions[split])
		split++
	}
	_, errs := drive(shards, sessions[:split], st.want, time.Now(), nil)
	out.setups = append(out.setups, time.Since(setupStart).Seconds())
	for _, sh := range shards {
		sh.on.Store(true)
	}

	var auditor *liveAuditor
	var after func(uint64)
	if live {
		auditor = startAuditor(st.lg)
		after = func(n uint64) {
			if n%uint64(cfg.auditEvery) == 0 {
				auditor.trigger()
			}
		}
	}
	m := startMeter()
	ph := phase{}
	var timedErrs []error
	ph.ops, timedErrs = drive(shards, sessions[split:], st.want, time.Now(), after)
	if live {
		auditor.stop()
	}
	m.stop(&ph)
	out.phases = append(out.phases, ph)
	errs = append(errs, timedErrs...)

	queries := cfg.odohWarmup + cfg.odohQueries
	out.attempted += queries
	if wireQ, err := dnswire.NewQuery(1, names[0], dnswire.TypeA).Encode(); err == nil {
		out.hpkeSize = len(wireQ)
	}
	out.failEach(errs)
	if live {
		lags = auditor.lags
		out.failEach(auditor.errs)
		if len(lags) == 0 {
			out.fail("live audit: no epoch ran")
		}
	}
	if n := st.lg.Len(); n != 6*queries {
		out.fail("ledger holds %d observations, want 6 × %d queries = %d", n, queries, 6*queries)
	}
	audits = postLoadAudits(out, st.lg, cfg.auditRepeats)
	out.heaps = append(out.heaps, liveHeapMB())
	if tr != nil {
		if err := out.ledger.replay(st.lg, queries); err != nil {
			return nil, nil, err
		}
	}
	runtime.KeepAlive(st)
	return audits, lags, nil
}
