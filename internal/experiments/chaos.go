// Chaos experiments: the paper's §4 cost-of-decoupling story under
// PARTIAL FAILURE. Every added hop is an added failure mode; these
// experiments measure what the resilience layer buys (availability)
// and what it must never spend (privacy):
//
//   - E14: availability and retry counts vs. injected fault rate,
//     per protocol, with and without retries. Retries may leak counts
//     (more ciphertexts on the wire), never names. The retried mixnet
//     runs' elapsed time goes to Result.VirtualElapsed, not the table,
//     so the report is the same on both transports.
//   - E15: failover across N interchangeable proxies — the
//     availability side of the §4.2 degrees-of-decoupling cost. The
//     coalition degree does not move.
//   - E16: the fail-open counterexample. A deliberately misconfigured
//     client degrades to a direct resolver under total proxy outage;
//     the ledger-derived tuple flips and the provenance audit flags
//     the partition COUPLED. Fail-closed, run on the same outage,
//     errors instead — and keeps the paper's table intact.
//
// Determinism: all chaos randomness is either the simulator's single
// seeded RNG or a splitmix64 hash of fixed seeds, and every client
// loop is internally sequential, so reports, metrics, and audits are
// byte-identical across runs and -parallel settings.
//
// Instrumentation: the chaos runs build the shared stacks with the
// experiment's telemetry but no wire plane. A wire-traced E16 would
// have the rotate-mode trace-plane audit compare the proxy's wire
// vantage against fail-open plaintext the wire never carried.
package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/faults"
	"decoupling/internal/ledger"
	"decoupling/internal/odoh"
	"decoupling/internal/onion"
	"decoupling/internal/provenance"
	"decoupling/internal/resilience"
	"decoupling/internal/telemetry"
	"decoupling/internal/transport"
)

// applyChaos applies a run's own fault plan. The network is addressed
// through the transport-neutral faults.Injector surface, so the same
// plan lands on the simulator's virtual clock or the real transport's
// wall clock — whichever the Ctx built.
func applyChaos(net transport.Runner, own *faults.Plan) {
	if inj, ok := net.(faults.Injector); ok && !own.Empty() {
		inj.ApplyFaults(own)
	}
}

// chaosFrac maps (seed, n) to a uniform float in [0, 1).
func chaosFrac(seed, n uint64) float64 {
	return float64(telemetry.Mix64(seed^n)%(1<<20)) / (1 << 20)
}

// flakyLink injects deterministic failures into an HTTP-shaped hop: the
// n-th call fails iff chaosFrac(seed, n) < rate. Mutex-guarded so the
// race detector stays clean even though chaos runs are sequential.
type flakyLink struct {
	rate float64
	seed uint64

	mu       sync.Mutex
	calls    uint64
	injected int
}

func (f *flakyLink) fail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.calls
	f.calls++
	if chaosFrac(f.seed, n) < f.rate {
		f.injected++
		return true
	}
	return false
}

func (f *flakyLink) stats() (calls uint64, injected int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.injected
}

// chaosRates are the injected fault rates E14 sweeps.
var chaosRates = []float64{0, 0.1, 0.3}

// mixnetChaosRun sends 16 staggered messages through a 3-mix cascade
// with burst loss injected on the entry link, driven by RetryAsync on
// the transport's clock. retry=false caps the policy at a single
// attempt. It builds through ctx.NewRunner, so the same run drives the
// simulator or real sockets; injected loss draws from the shared
// per-link LossDraw stream, making the availability table identical on
// both. The retry counter is atomic because real-transport attempts
// fire from concurrent timer goroutines.
func mixnetChaosRun(ctx Ctx, rate float64, retry bool) (delivered, retries int, elapsed time.Duration, err error) {
	tel := ctx.Tel
	net := ctx.NewRunner(14)
	defer net.Close()
	net.Instrument(tel)
	c, err := newCascade(net, nil, 3, 1, false, tel, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	plan := faults.NewPlan()
	if rate > 0 {
		plan.Loss(faults.Wildcard, "mix1", rate, 0, 0)
	}
	applyChaos(net, plan)

	p := resilience.Default("mixnet")
	// Generous against the wall clock: deliveries take microseconds on
	// loopback and milliseconds virtually; the timeout only has to beat
	// scheduler noise, and a fatter margin keeps the retry counts (and
	// so the table) identical across transports on a loaded machine.
	p.Timeout = 150 * time.Millisecond
	if !retry {
		p.MaxAttempts = 1
	}
	var retryCount atomic.Int64
	for i := 0; i < 16; i++ {
		i := i
		from := transport.Addr(fmt.Sprintf("sender%02d", i))
		msg := fmt.Sprintf("chaos message %02d", i)
		net.After(time.Duration(i)*2*time.Millisecond, func() {
			resilience.RetryAsync(net, tel, p, uint64(0xE14<<8)|uint64(i),
				func(attempt int) error {
					if attempt > 0 {
						retryCount.Add(1)
					}
					return c.send(net, from, nil, msg)
				},
				func() bool { return c.delivered(msg) },
				nil)
		})
	}
	net.Run()
	seen := map[string]bool{}
	for _, got := range c.rcv.Inbox() {
		seen[string(got.Body)] = true
	}
	return len(seen), int(retryCount.Load()), net.Now(), nil
}

// onionChaosRun crashes the entry relay of an established circuit and
// issues one request after the crash. Without retries the request dies
// at the dead entry; with retries the client rebuilds through a
// surviving entry (BuildCircuitResilient) and the response arrives.
func onionChaosRun(ctx Ctx, retry bool) (delivered int, err error) {
	tel := ctx.Tel
	net := ctx.NewRunner(15)
	defer net.Close()
	net.Instrument(tel)
	// nil telemetry: E14's relays feed no cell counters.
	pool, err := newOnion(net, nil, 4, 0, nil)
	if err != nil {
		return 0, err
	}
	client := onion.NewClient(net, "alice")

	// Circuit setup completes by 30ms virtually (3 hops) and within a
	// few ms of wall time; the entry dies at 35ms and restarts at
	// 200ms, and the request fires at 100ms — every gap is tens of
	// milliseconds wide so wall-clock timer skew cannot reorder the
	// crash, the request, and the restart. Rebuilt circuits may still
	// route through the dead relay as a middle hop (the client cannot
	// see mid-route crashes), so recovery needs the timeout-driven
	// retry to outlast the crash window — exactly the §4.3 cost being
	// measured.
	circ, err := client.BuildCircuit(pool[:3])
	if err != nil {
		return 0, err
	}
	applyChaos(net, faults.NewPlan().Crash("relay1", 35*time.Millisecond, 200*time.Millisecond))

	p := resilience.Default("onion")
	p.Timeout = 150 * time.Millisecond
	if !retry {
		p.MaxAttempts = 1
	}
	net.After(100*time.Millisecond, func() {
		resilience.RetryAsync(net, tel, p, 0xE14A,
			func(attempt int) error {
				c := circ
				if attempt > 0 {
					rebuilt, berr := client.BuildCircuitResilient(pool, 3, tel)
					if berr != nil {
						return berr
					}
					c = rebuilt
				}
				return c.Request("origin", []byte("GET /chaos"))
			},
			func() bool { return len(client.Responses()) > 0 },
			nil)
	})
	net.Run()
	return len(client.Responses()), nil
}

// odohChaosRun drives the E4 ODoH stack with a deterministically flaky
// client→proxy hop. Failed attempts never reach the proxy: the injected
// fault models an unreachable proxy, so retries cost the client wire
// attempts but leak nothing new to any observer.
func odohChaosRun(ctx Ctx, rate float64, retry bool) (ok int, lg *ledger.Ledger, link *flakyLink, err error) {
	s, err := newODoHStack(ctx.Tel, nil, auditDNSClients)
	if err != nil {
		return 0, nil, nil, err
	}
	link = &flakyLink{rate: rate, seed: 0xE14D0}
	forward := func(clientAddr string, raw []byte) ([]byte, error) {
		if link.fail() {
			return nil, fmt.Errorf("odoh: proxy unreachable (injected fault)")
		}
		return s.proxy.Forward(clientAddr, raw)
	}

	p := resilience.Default("odoh")
	if !retry {
		p.MaxAttempts = 1
	}
	for i := 0; i < auditDNSClients; i++ {
		if _, qerr := s.resilient(i, p, forward).Query(dnsName(i), dnswire.TypeA); qerr == nil {
			ok++
		}
	}
	return ok, s.lg, link, nil
}

// odnsChaosRun drives the E4 ODNS stack with a deterministically flaky
// oblivious-resolver upstream. Unlike odohChaosRun, failures happen
// BEHIND the recursive resolver: every retried attempt is one more
// (opaque) query in the resolver's logs — the count leak E14 verifies
// is counts-only.
func odnsChaosRun(ctx Ctx, rate float64, retry bool) (ok int, lg *ledger.Ledger, link *flakyLink, err error) {
	s, err := newODNSStack(ctx.Tel, nil, auditDNSClients)
	if err != nil {
		return 0, nil, nil, err
	}
	link = &flakyLink{rate: rate, seed: 0xE14D1}
	flaky := &downAuthority{Authority: s.oblivious, down: link.fail}
	recursive := dns.NewResolver("Resolver", []dns.Authority{flaky, s.origin}, s.lg, nil)

	p := resilience.Default("odns")
	if !retry {
		p.MaxAttempts = 1
	}
	for i := 0; i < auditDNSClients; i++ {
		c := s.client(i, recursive)
		var qerr error
		if retry {
			_, qerr = c.QueryResilient(dnsName(i), dnswire.TypeA, p, ctx.Tel, nil)
		} else {
			_, qerr = c.Query(dnsName(i), dnswire.TypeA)
		}
		if qerr == nil {
			ok++
		}
	}
	return ok, s.lg, link, nil
}

// E14ChaosAvailability measures availability vs. injected fault rate
// for each decoupled protocol, with and without the resilience layer,
// and verifies the knowledge tuples survive the faults: retries may
// leak counts, never names.
func E14ChaosAvailability(ctx Ctx) (*Result, error) {
	r := &Result{ID: "E14", Title: "Chaos: availability vs fault rate (retries leak counts, not names)", Section: "4.3"}

	// Mixnet: burst loss on the entry link.
	mixT := Table{
		Title:   "mixnet: 16 messages, 3-mix cascade, burst loss on the entry link",
		Columns: []string{"loss rate", "delivered (no retry)", "delivered (retry)", "retries"},
	}
	for _, rate := range chaosRates {
		d0, _, _, err := mixnetChaosRun(ctx, rate, false)
		if err != nil {
			return nil, err
		}
		d1, retries, elapsed, err := mixnetChaosRun(ctx, rate, true)
		if err != nil {
			return nil, err
		}
		r.VirtualElapsed += elapsed
		mixT.Rows = append(mixT.Rows, []string{
			fmt.Sprintf("%.1f", rate),
			fmt.Sprintf("%d/16", d0), fmt.Sprintf("%d/16", d1),
			fmt.Sprint(retries),
		})
		if rate == 0 && (d0 != 16 || d1 != 16) {
			r.Diffs = append(r.Diffs, fmt.Sprintf("mixnet: lossless run dropped messages (%d/%d of 16)", d0, d1))
		}
		if d1 < d0 {
			r.Diffs = append(r.Diffs, fmt.Sprintf("mixnet: retries reduced delivery at rate %.1f (%d < %d)", rate, d1, d0))
		}
	}
	r.Tables = append(r.Tables, mixT)

	// Onion: entry-relay crash mid-session.
	o0, err := onionChaosRun(ctx, false)
	if err != nil {
		return nil, err
	}
	o1, err := onionChaosRun(ctx, true)
	if err != nil {
		return nil, err
	}
	r.Tables = append(r.Tables, Table{
		Title:   "onion routing: entry relay crashes after circuit setup",
		Columns: []string{"policy", "responses"},
		Rows: [][]string{
			{"no retry", fmt.Sprintf("%d/1", o0)},
			{"retry + circuit rebuild", fmt.Sprintf("%d/1", o1)},
		},
	})
	if o0 != 0 || o1 != 1 {
		r.Diffs = append(r.Diffs, fmt.Sprintf("onion: want 0 without retry and 1 with rebuild, got %d/%d", o0, o1))
	}

	// ODoH and ODNS: flaky hops on either side of the decoupling point.
	dnsT := Table{
		Title:   "oblivious DNS: 20 queries, flaky hop (fault before proxy for ODoH, behind resolver for ODNS)",
		Columns: []string{"protocol", "fault rate", "answered (no retry)", "answered (retry)", "injected failures", "tuple diffs (retry run)"},
	}
	expected := core.ObliviousDNS()
	for _, rate := range chaosRates {
		ok0, _, _, err := odohChaosRun(ctx, rate, false)
		if err != nil {
			return nil, err
		}
		ok1, lg1, link1, err := odohChaosRun(ctx, rate, true)
		if err != nil {
			return nil, err
		}
		_, inj := link1.stats()
		diffs := core.CompareTuples(expected, lg1.DeriveSystem(expected))
		dnsT.Rows = append(dnsT.Rows, []string{"odoh", fmt.Sprintf("%.1f", rate),
			fmt.Sprintf("%d/20", ok0), fmt.Sprintf("%d/20", ok1), fmt.Sprint(inj), fmt.Sprint(len(diffs))})
		if len(diffs) > 0 {
			r.Diffs = append(r.Diffs, prefixed(fmt.Sprintf("odoh rate %.1f", rate), diffs)...)
		}
		if ok1 < ok0 || (rate == 0 && ok1 != 20) {
			r.Diffs = append(r.Diffs, fmt.Sprintf("odoh: availability regressed at rate %.1f (%d no-retry, %d retry)", rate, ok0, ok1))
		}
		// Keep the highest-stress retry ledger as the experiment's primary
		// artifact: its tuples must still be the paper's table.
		if rate == chaosRates[len(chaosRates)-1] {
			r.Expected = expected
			r.Measured = lg1.DeriveSystem(expected)
			r.Ledger = lg1
			st := lg1.Stats()
			r.Notes = append(r.Notes, fmt.Sprintf(
				"odoh rate %.1f retry run: %d total observations for 20 queries — retries inflate counts; names and tuples are unchanged",
				rate, st.Total))
		}
	}
	for _, rate := range chaosRates {
		ok0, _, _, err := odnsChaosRun(ctx, rate, false)
		if err != nil {
			return nil, err
		}
		ok1, lg1, link1, err := odnsChaosRun(ctx, rate, true)
		if err != nil {
			return nil, err
		}
		_, inj := link1.stats()
		diffs := core.CompareTuples(expected, lg1.DeriveSystem(expected))
		dnsT.Rows = append(dnsT.Rows, []string{"odns", fmt.Sprintf("%.1f", rate),
			fmt.Sprintf("%d/20", ok0), fmt.Sprintf("%d/20", ok1), fmt.Sprint(inj), fmt.Sprint(len(diffs))})
		if len(diffs) > 0 {
			r.Diffs = append(r.Diffs, prefixed(fmt.Sprintf("odns rate %.1f", rate), diffs)...)
		}
		if ok1 < ok0 || (rate == 0 && ok1 != 20) {
			r.Diffs = append(r.Diffs, fmt.Sprintf("odns: availability regressed at rate %.1f (%d no-retry, %d retry)", rate, ok0, ok1))
		}
	}
	r.Tables = append(r.Tables, dnsT)

	v, err := core.Analyze(r.Measured)
	if err != nil {
		return nil, err
	}
	r.Verdict = &v
	r.Notes = append(r.Notes,
		"ODNS faults land BEHIND the recursive resolver: each retry adds one opaque entry to its logs (a count), never a plaintext name")
	r.Pass = len(r.Diffs) == 0
	return r, nil
}

// E15ChaosFailover measures failover across N interchangeable proxies
// against total outage of all but one — the availability half of the
// §4.2 degrees-of-decoupling cost. Replicating the SAME role adds
// attempts and latency but leaves the knowledge tuples and the
// coalition degree untouched.
func E15ChaosFailover(ctx Ctx) (*Result, error) {
	r := &Result{ID: "E15", Title: "Chaos: failover across N proxies vs the degrees-of-decoupling cost", Section: "4.2"}
	expected := core.ObliviousDNS()
	t := Table{
		Title:   "ODoH failover: N-1 of N proxies down, 20 queries",
		Columns: []string{"proxies", "down", "attempts/query", "failovers/query", "answered", "tuple diffs", "degree"},
	}
	for _, n := range []int{1, 2, 4} {
		s, err := newODoHStack(ctx.Tel, nil, auditDNSClients)
		if err != nil {
			return nil, err
		}

		// Proxies 0..n-2 are down hard (they observe nothing); the last
		// replica is healthy. Every replica plays the same "Resolver" role.
		var attempts int
		forwards := make([]odoh.ForwardFunc, 0, n)
		for i := 0; i < n-1; i++ {
			i := i
			forwards = append(forwards, func(string, []byte) ([]byte, error) {
				attempts++
				return nil, fmt.Errorf("odoh: proxy replica %d unreachable (injected outage)", i)
			})
		}
		forwards = append(forwards, func(clientAddr string, raw []byte) ([]byte, error) {
			attempts++
			return s.proxy.Forward(clientAddr, raw)
		})

		p := resilience.Default("odoh")
		p.MaxAttempts = n + 1
		answered := 0
		for i := 0; i < auditDNSClients; i++ {
			if _, qerr := s.resilient(i, p, forwards...).Query(dnsName(i), dnswire.TypeA); qerr == nil {
				answered++
			}
		}

		measured := s.lg.DeriveSystem(expected)
		diffs := core.CompareTuples(expected, measured)
		v, err := core.Analyze(measured)
		if err != nil {
			return nil, err
		}
		perQuery := float64(attempts) / float64(auditDNSClients)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(n - 1),
			fmt.Sprintf("%.1f", perQuery), fmt.Sprintf("%.1f", perQuery-1),
			fmt.Sprintf("%d/20", answered), fmt.Sprint(len(diffs)), fmt.Sprint(v.Degree),
		})
		if answered != auditDNSClients {
			r.Diffs = append(r.Diffs, fmt.Sprintf("n=%d: only %d/20 queries answered", n, answered))
		}
		if attempts != n*auditDNSClients {
			r.Diffs = append(r.Diffs, fmt.Sprintf("n=%d: %d attempts, want %d (one per replica per query)", n, attempts, n*auditDNSClients))
		}
		if len(diffs) > 0 {
			r.Diffs = append(r.Diffs, prefixed(fmt.Sprintf("n=%d", n), diffs)...)
		}
		if n == 4 {
			r.Expected = expected
			r.Measured = measured
			r.Verdict = &v
			r.Ledger = s.lg
		}
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"failover replicas fill the SAME role: attempts (availability cost) grow linearly with dead replicas while tuples and the coalition degree stay fixed",
		"contrast with §4.2: raising the degree means adding DIFFERENT roles (more hops), not more replicas of one role")
	r.Pass = len(r.Diffs) == 0
	return r, nil
}

// e16Run drives the ODoH stack through a healthy phase (clients 0-9)
// and a total proxy outage (clients 10-19) under the given degradation
// mode. In FailOpen mode the client is deliberately misconfigured with
// a direct-resolver fallback — the re-coupling the paper warns about.
func e16Run(ctx Ctx, mode resilience.Mode) (lg *ledger.Ledger, okHealthy, fallbacks, exhaustions int, err error) {
	s, err := newODoHStack(ctx.Tel, nil, auditDNSClients)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	outage := false
	forward := func(clientAddr string, raw []byte) ([]byte, error) {
		if outage {
			return nil, fmt.Errorf("odoh: proxy unreachable (total outage)")
		}
		return s.proxy.Forward(clientAddr, raw)
	}
	// The fallback resolver records under the same "Resolver" role the
	// oblivious proxy plays — which is exactly the point: the operator
	// who ran the proxy now sees plaintext names.
	direct := s.directResolver()

	for i := 0; i < auditDNSClients; i++ {
		if i == 10 {
			outage = true
		}
		rc := s.resilient(i, resilience.Default("odoh"), forward)
		if mode == resilience.FailOpen {
			failOpen(rc, direct, &fallbacks)
		}
		_, qerr := rc.Query(dnsName(i), dnswire.TypeA)
		switch {
		case qerr == nil && !outage:
			okHealthy++
		case qerr != nil && errors.Is(qerr, resilience.ErrExhausted):
			exhaustions++
		case qerr != nil:
			return nil, 0, 0, 0, fmt.Errorf("e16 %s client %d: unexpected error: %w", mode, i, qerr)
		}
	}
	return s.lg, okHealthy, fallbacks, exhaustions, nil
}

// E16ChaosFailOpen is the fail-open counterexample. Two identical runs
// hit a total proxy outage; they differ only in degradation policy.
// Fail-closed errors and the paper's table survives byte-for-byte.
// Fail-open "survives" the outage — and the ledger-derived Resolver
// tuple flips to (▲,●), the verdict to NOT decoupled, and the
// provenance audit flags the partition COUPLED. The experiment PASSES
// when the audit catches the misconfiguration.
func E16ChaosFailOpen(ctx Ctx) (*Result, error) {
	r := &Result{ID: "E16", Title: "Chaos: fail-closed vs fail-open under total proxy outage", Section: "3.3"}
	expected := core.ObliviousDNS()

	lgClosed, okC, fbC, exC, err := e16Run(ctx, resilience.FailClosed)
	if err != nil {
		return nil, err
	}
	measuredClosed := lgClosed.DeriveSystem(expected)
	diffsClosed := core.CompareTuples(expected, measuredClosed)

	lgOpen, okO, fbO, exO, err := e16Run(ctx, resilience.FailOpen)
	if err != nil {
		return nil, err
	}
	measuredOpen := lgOpen.DeriveSystem(expected)
	diffsOpen := core.CompareTuples(expected, measuredOpen)
	vOpen, err := core.Analyze(measuredOpen)
	if err != nil {
		return nil, err
	}
	audit, err := provenance.Derive(lgOpen, expected)
	if err != nil {
		return nil, err
	}
	coupled := 0
	for _, part := range audit.Partitions {
		if part.Coupled {
			coupled++
		}
	}

	r.Tables = append(r.Tables, Table{
		Title:   "identical outage, two degradation policies (10 healthy + 10 outage queries each)",
		Columns: []string{"policy", "healthy answered", "outage outcome", "tuple diffs", "coupled partitions"},
		Rows: [][]string{
			{"fail-closed", fmt.Sprintf("%d/10", okC), fmt.Sprintf("%d errors (ErrExhausted)", exC), fmt.Sprint(len(diffsClosed)), "0"},
			{"fail-open", fmt.Sprintf("%d/10", okO), fmt.Sprintf("%d direct fallbacks", fbO), fmt.Sprint(len(diffsOpen)), fmt.Sprint(coupled)},
		},
	})

	// Pass criteria: fail-closed preserves the paper's table and errors
	// loudly; fail-open is caught by the ledger-derived audit.
	if okC != 10 || exC != 10 || fbC != 0 {
		r.Diffs = append(r.Diffs, fmt.Sprintf("fail-closed: want 10 healthy + 10 exhaustions + 0 fallbacks, got %d/%d/%d", okC, exC, fbC))
	}
	if len(diffsClosed) > 0 {
		r.Diffs = append(r.Diffs, prefixed("fail-closed", diffsClosed)...)
	}
	if okO != 10 || fbO != 10 || exO != 0 {
		r.Diffs = append(r.Diffs, fmt.Sprintf("fail-open: want 10 healthy + 10 fallbacks + 0 exhaustions, got %d/%d/%d", okO, fbO, exO))
	}
	if len(diffsOpen) == 0 {
		r.Diffs = append(r.Diffs, "fail-open: expected the Resolver tuple to diverge from the paper's table; it did not")
	}
	if vOpen.Decoupled {
		r.Diffs = append(r.Diffs, "fail-open: measured system still analyzes as decoupled; the fallback should have re-coupled it")
	}
	if coupled == 0 {
		r.Diffs = append(r.Diffs, "fail-open: provenance audit found no coupled partition; it must flag the fallback")
	}

	for _, d := range diffsOpen {
		r.Notes = append(r.Notes, "fail-open divergence (expected, this is the counterexample): "+d)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("fail-open verdict: %s", &vOpen),
		"the rendered comparison below shows the fail-open run: availability bought by re-coupling, and the audit catches it")

	// The retained artifacts are the MISCONFIGURED run, so -audit emits
	// the COUPLED provenance record the experiment exists to produce.
	r.Expected = expected
	r.Measured = measuredOpen
	r.Verdict = &vOpen
	r.Ledger = lgOpen
	r.Pass = len(r.Diffs) == 0
	return r, nil
}
