// Command loadgen drives the real-socket transport stack at scale:
// 10^5–10^6 simulated clients against sharded ODoH proxies over real
// loopback HTTP, and a mixnet relay cascade over the real TCP
// transport. It measures what the simulator cannot — wall throughput,
// delivery latency quantiles, allocations per operation — while keeping
// what the simulator guarantees: with the ledger enabled, the same
// knowledge tuples and coalition verdict the table experiments derive.
//
// Output is a JSON benchmark document (BENCH_transport.json by
// convention) and a human summary on stderr. The process exits nonzero
// if any request errored, so CI can gate on a clean run.
//
// Quickstart:
//
//	go run ./cmd/loadgen -clients 100000 -out BENCH_transport.json
//
// A live run is observable while it executes: -listen mounts /metrics
// (Prometheus text exposition), /statusz (JSON run summary including
// the benchmark document so far), and /debug/pprof; -sample appends a
// per-second JSONL time series of run health:
//
//	go run ./cmd/loadgen -clients 100000 -listen :9090 -sample samples.jsonl
//	curl -s http://127.0.0.1:9090/metrics
//
// The million-client sweep (documented in EXPERIMENTS.md) disables the
// ledger and packet capture to measure the bare transport:
//
//	go run ./cmd/loadgen -full -out BENCH_transport.json
//
// Chaos under load: -faults injects a fault plan (the same grammar the
// simulator's -faults flags speak) on the run's wall clock — proxy
// crash windows become 503s on the ODoH leg, link faults land on the
// mixnet leg's real TCP transport, and small -inbox-depth/-shed-after
// values make overload shedding reachable. The run then grades itself
// against a fail-closed SLO (bounded error rate, delivered fraction,
// ledger verdict still DECOUPLED) recorded as the "faults" block of the
// benchmark document; a blown SLO is a nonzero exit:
//
//	go run ./cmd/loadgen -clients 10000 -faults "loss:*>relay1:0.25@0-800ms" -out bench.chaos.json
//
// -fail-open is the PLANTED negative control: clients that exhaust
// their retry budget under -faults fall back to a direct resolver —
// the re-coupling the paper warns about. The ledger audit must convict
// the run (verdict not DECOUPLED) and the exit must be nonzero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decoupling/internal/bench"
	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/faults"
	"decoupling/internal/ledger"
	"decoupling/internal/mixnet"
	"decoupling/internal/nettransport"
	"decoupling/internal/odoh"
	"decoupling/internal/resilience"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
	"decoupling/internal/transport"
	"decoupling/internal/workload"
)

// clientHeader carries the logical client identity on the loadgen's
// proxy endpoints. Ground truth must name stable client identities;
// r.RemoteAddr is useless for that at this scale because the kernel
// recycles ephemeral ports across logical clients mid-run.
const clientHeader = "X-Loadgen-Client"

// chaosProxyNode is the fault-plan address of the ODoH proxy operator:
// a crash window on this node turns every proxy shard into a hung 503.
// The shards are one logical operator, so they fail as one node — same
// reason they share one ledger observer name.
const chaosProxyNode transport.Addr = "proxy"

// chaos is a run's fault configuration, nil when -faults is off. Each
// leg evaluates plan windows against its own wall clock (legStart is
// re-zeroed when the leg begins): the ODoH leg window-queries the plan
// directly — its proxies are plain net/http servers with no transport
// underneath — while the mixnet leg hands the plan to nettransport's
// fault layer, which enforces it at the frame codec boundary.
type chaos struct {
	plan     *faults.Plan
	failOpen bool // PLANTED: direct fallback on retry exhaustion

	// Transport tuning for the mixnet leg: small inbox/out depths plus
	// a shed deadline make overload shedding reachable at test scale.
	inboxDepth int
	outDepth   int
	shedAfter  time.Duration

	// Fail-closed SLO bounds.
	maxErrRate   float64
	minDelivered float64

	legMu    sync.Mutex
	legStart time.Time

	// Chaos accounting, aggregated across legs into bench.FaultSummary.
	injectedODoH atomic.Uint64 // proxy 503s from crash windows
	retries      atomic.Uint64 // client-level retried attempts
	fallbacks    atomic.Uint64 // planted fail-open direct queries

	// Transport counters, captured from the mixnet leg's Net before it
	// closes; deliveredFrac is distinct-messages-delivered / senders.
	injectedWire  atomic.Uint64
	shed          atomic.Uint64
	reconnects    atomic.Uint64
	deliveredFrac atomic.Uint64 // *1e6, fixed-point
}

// startLeg re-zeroes the plan clock: fault windows are leg-relative,
// so one -faults string stresses both legs without knowing how long
// the other takes.
func (ch *chaos) startLeg() {
	if ch == nil {
		return
	}
	ch.legMu.Lock()
	ch.legStart = time.Now()
	ch.legMu.Unlock()
}

// elapsed is the plan clock for the current leg.
func (ch *chaos) elapsed() time.Duration {
	ch.legMu.Lock()
	defer ch.legMu.Unlock()
	return time.Since(ch.legStart)
}

// proxyDown reports whether the ODoH proxy operator is inside a crash
// window right now.
func (ch *chaos) proxyDown() bool {
	return ch != nil && ch.plan.CrashedAt(chaosProxyNode, ch.elapsed())
}

// captureTransport records the mixnet transport's chaos counters
// before the Net closes.
func (ch *chaos) captureTransport(nt *nettransport.Net) {
	ch.injectedWire.Add(nt.FaultDrops())
	ch.shed.Add(nt.Shed())
	ch.reconnects.Add(nt.Reconnects())
}

// summary assembles the benchmark document's faults block; SLOOK is
// filled in by the caller once the ledger verdict is known.
func (ch *chaos) summary(doc bench.Doc) *bench.FaultSummary {
	fs := &bench.FaultSummary{
		Spec:       ch.plan.Spec(),
		Injected:   ch.injectedWire.Load() + ch.injectedODoH.Load(),
		Shed:       ch.shed.Load(),
		Retries:    ch.retries.Load(),
		Reconnects: ch.reconnects.Load(),
	}
	if total := doc.ODoH.Requests + doc.Mixnet.Requests; total > 0 {
		fs.ErrorRate = float64(doc.ODoH.Errors+doc.Mixnet.Errors) / float64(total)
	}
	fs.DeliveredFraction = float64(ch.deliveredFrac.Load()) / 1e6
	return fs
}

// legObs is the live instrumentation for one benchmark leg: cached
// nil-safe handles, so a run without -listen pays one pointer check
// per operation.
type legObs struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	inflight *telemetry.Gauge
	latency  *telemetry.Summary
}

// liveObs is the observability plane of a run: the registry behind
// /metrics, per-leg handles the hot loops feed, and the state /statusz
// snapshots. Constructed with a nil registry it is fully inert.
type liveObs struct {
	metrics *telemetry.Metrics
	odoh    legObs
	mixnet  legObs

	// wire is the run's trace plane (nil when tracing is off); sampled
	// counts the clients instrumented with it. /statusz snapshots both.
	wire      *wiretrace.Plane
	traceMode string
	sampled   atomic.Int64

	mu    sync.Mutex
	phase string
	doc   bench.Doc

	start time.Time
}

func newLiveObs(m *telemetry.Metrics) *liveObs {
	leg := func(name string) legObs {
		l := telemetry.A("leg", name)
		return legObs{
			requests: m.Counter(telemetry.MetricLoadgenRequests, "requests issued by the load generator", l),
			errors:   m.Counter(telemetry.MetricLoadgenErrors, "load generator request errors", l),
			inflight: m.Gauge(telemetry.MetricLoadgenInflight, "load generator requests currently in flight", l),
			latency:  m.Summary(telemetry.MetricLoadgenLatency, "request wall latency in seconds", l),
		}
	}
	return &liveObs{metrics: m, odoh: leg("odoh"), mixnet: leg("mixnet"),
		phase: "init", start: time.Now()}
}

func (o *liveObs) setPhase(p string) {
	o.mu.Lock()
	o.phase = p
	o.mu.Unlock()
}

// update mutates the /statusz benchmark document under the lock.
func (o *liveObs) update(f func(*bench.Doc)) {
	o.mu.Lock()
	f(&o.doc)
	o.mu.Unlock()
}

// status is the /statusz hook: process health plus the benchmark
// document as far as the run has gotten.
func (o *liveObs) status() (any, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.mu.Lock()
	st := bench.Status{
		Phase:      o.phase,
		ElapsedSec: time.Since(o.start).Seconds(),
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  ms.HeapAlloc,
		Bench:      o.doc,
	}
	o.mu.Unlock()
	// The trace block is recomputed per scrape so the critical-path
	// histogram is live mid-run, not just in the final document.
	if st.Bench.Trace == nil {
		st.Bench.Trace = traceSummary(o.wire, o.traceMode, int(o.sampled.Load()), nil)
	}
	return st, nil
}

// traceSummary builds the benchmark document's trace block from the
// plane's current state; audit carries the trace-plane verdict once
// one has run. Nil when tracing is off.
func traceSummary(p *wiretrace.Plane, mode string, sampled int, audit *bool) *bench.TraceSummary {
	if !p.Enabled() {
		return nil
	}
	ts := &bench.TraceSummary{Mode: mode, Sampled: sampled, AuditDecoupled: audit}
	for _, st := range p.Stores() {
		for _, sp := range st.Spans() {
			ts.Spans++
			if !sp.RotatedTo.IsZero() {
				ts.Rotations++
			}
		}
	}
	if cs := wiretrace.SummarizeCritical(p, 3); cs != nil {
		ts.Dominant = cs.DominantCounts
		for _, ex := range cs.Slowest {
			ts.Exemplars = append(ts.Exemplars, bench.TraceExemplar{
				Trace: ex.Trace, TotalMs: ex.TotalMs,
				Dominant: ex.Dominant, DominantMs: ex.DominantMs,
			})
		}
	}
	return ts
}

// flushTraceArtifacts writes the span JSONL and Perfetto documents.
// It runs deferred from realMain, so a run that aborts on an error
// path still leaves whatever spans it recorded behind for diagnosis.
func flushTraceArtifacts(p *wiretrace.Plane, spansPath, perfettoPath string) {
	if !p.Enabled() {
		return
	}
	write := func(path string, render func(io.Writer, *wiretrace.Plane) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: trace artifact: %v\n", err)
			return
		}
		if err := render(f, p); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: trace artifact %s: %v\n", path, err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: trace artifact %s: %v\n", path, err)
		}
	}
	write(spansPath, wiretrace.WriteJSONL)
	write(perfettoPath, wiretrace.WritePerfetto)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		clients = flag.Int("clients", 100_000, "logical ODoH clients to simulate")
		proxies = flag.Int("proxies", 4, "ODoH proxy shards (HTTP endpoints of one logical operator)")
		relays  = flag.Int("relays", 3, "mixes in the relay cascade")
		workers = flag.Int("workers", 256, "concurrent client goroutines")
		seed    = flag.Int64("seed", 1, "workload seed")
		out     = flag.String("out", "BENCH_transport.json", "benchmark JSON output path")
		full    = flag.Bool("full", false, "million-client sweep: 1e6 clients, ledger and capture off")
		useLg   = flag.Bool("ledger", true, "admit observations into the knowledge ledger and derive the verdict")
		listen  = flag.String("listen", "", "serve /metrics, /statusz, and /debug/pprof on this address (e.g. :9090)")
		sample  = flag.String("sample", "", "append per-second JSONL run-health samples to this file")

		traceMode = flag.String("trace-mode", "off",
			"wall-clock wire tracing: off, rotate (re-key the trace id at every decoupling boundary), or naive (one global id end-to-end — the planted mode the trace-plane audit must convict)")
		traceSample = flag.Int("trace-sample", 1000, "trace one client in N (with -trace-mode)")
		wirespans   = flag.String("wirespans", "", "write wire spans as strict JSONL to this file")
		perfetto    = flag.String("perfetto", "", "write spans as a Chrome trace_event/Perfetto JSON document to this file")

		faultsSpec = flag.String("faults", "",
			"chaos: a named fault plan ("+strings.Join(faults.NamedPlans(), ", ")+") or a spec string (see internal/faults); windows are per leg on that leg's wall clock")
		failOpen = flag.Bool("fail-open", false,
			"PLANTED negative control (needs -faults): clients that exhaust retries fall back to a direct resolver; the ledger must convict the run and the exit must be nonzero")
		shedAfter    = flag.Duration("shed-after", 2*time.Millisecond, "with -faults: bound a blocked send/delivery to this wait, then shed (typed error, counted — never silent)")
		inboxDepth   = flag.Int("inbox-depth", 16_384, "with -faults: transport per-node inbox depth (small values make overload shedding reachable)")
		outDepth     = flag.Int("out-depth", 0, "with -faults: transport writer-queue depth (0 = transport default)")
		maxErrRate   = flag.Float64("max-error-rate", 0.05, "with -faults: fail-closed SLO bound on the client-visible error rate")
		minDelivered = flag.Float64("min-delivered", 0.9, "with -faults: fail-closed SLO floor for the mixnet leg's delivered fraction after retries")
	)
	flag.Parse()
	if *full {
		*clients = 1_000_000
		*useLg = false
	}
	if *clients < 1 || *proxies < 1 || *relays < 1 || *workers < 1 || *traceSample < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: all sizes must be >= 1")
		return 2
	}
	wireMode, err := wiretrace.ParseMode(*traceMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}
	if (*wirespans != "" || *perfetto != "") && wireMode == wiretrace.ModeOff {
		fmt.Fprintln(os.Stderr, "loadgen: -wirespans/-perfetto need -trace-mode rotate or naive")
		return 2
	}

	plan, err := faults.PlanFromSpec(*faultsSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: -faults: %v\n", err)
		return 2
	}
	var ch *chaos
	if plan != nil {
		ch = &chaos{
			plan: plan, failOpen: *failOpen,
			inboxDepth: *inboxDepth, outDepth: *outDepth, shedAfter: *shedAfter,
			maxErrRate: *maxErrRate, minDelivered: *minDelivered,
		}
	}
	if *failOpen && ch == nil {
		fmt.Fprintln(os.Stderr, "loadgen: -fail-open is a chaos degradation policy; it needs -faults")
		return 2
	}
	if ch != nil && ch.failOpen && !*useLg {
		fmt.Fprintln(os.Stderr, "loadgen: -fail-open needs -ledger: without it nobody can convict the fallback")
		return 2
	}

	obs := newLiveObs(telemetry.NewMetrics())
	obs.update(func(d *bench.Doc) {
		*d = bench.Doc{Clients: *clients, Proxies: *proxies, Relays: *relays,
			Workers: *workers, Seed: *seed, Full: *full}
		if ch != nil {
			// The spec is visible on /statusz from the first scrape; the
			// counters fill in as the legs finish.
			d.Faults = &bench.FaultSummary{Spec: ch.plan.Spec()}
		}
	})

	// The trace plane: hop sampling keeps the unsampled majority span-
	// free (they still carry zero-cost empty contexts), and the flush
	// is deferred so an error exit still writes the artifacts.
	plane := wiretrace.New(wireMode, *seed)
	plane.SetHopSampling(true)
	plane.SetClock(func() time.Duration { return time.Since(obs.start) })
	obs.wire, obs.traceMode = plane, wireMode.String()
	defer flushTraceArtifacts(plane, *wirespans, *perfetto)

	if *listen != "" {
		srv, addr, err := telemetry.ServeObs(*listen, obs.metrics, obs.status)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: listen %s: %v\n", *listen, err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "loadgen: observability on http://%s/metrics /statusz /debug/pprof\n", addr)
	}

	if *sample != "" {
		f, err := os.Create(*sample)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: sample file: %v\n", err)
			return 2
		}
		defer f.Close()
		sampler := telemetry.NewSampler(f, time.Second,
			telemetry.CounterVar("odoh_requests", obs.odoh.requests),
			telemetry.CounterVar("odoh_errors", obs.odoh.errors),
			telemetry.GaugeVar("odoh_inflight", obs.odoh.inflight),
			telemetry.CounterVar("mixnet_requests", obs.mixnet.requests),
		)
		sampler.Start()
		defer func() {
			if err := sampler.Stop(); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: sampler: %v\n", err)
			}
		}()
	}

	var lg *ledger.Ledger
	var cls *ledger.Classifier
	if *useLg {
		cls = ledger.NewClassifier()
		lg = ledger.New(cls, nil)
	}

	obs.setPhase("odoh")
	odohRes, err := runODoH(*clients, *proxies, *workers, *seed, cls, lg, obs, plane, *traceSample, ch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: odoh leg: %v\n", err)
		return 1
	}
	obs.update(func(d *bench.Doc) { d.ODoH = odohRes })

	obs.setPhase("mixnet")
	mixRes, err := runMixnetLeg(*clients, *relays, *workers, *seed, obs, plane, *traceSample, ch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: mixnet leg: %v\n", err)
		return 1
	}
	obs.update(func(d *bench.Doc) { d.Mixnet = mixRes })

	if lg != nil {
		expected := core.ObliviousDNS()
		measured := lg.DeriveSystem(expected)
		diffs := core.CompareTuples(expected, measured)
		verdict, err := core.Analyze(measured)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: analyze: %v\n", err)
			return 1
		}
		st := lg.Stats()
		obs.update(func(d *bench.Doc) {
			d.Ledger = &bench.LedgerSummary{
				Observations:  st.Total,
				TupleDiffs:    len(diffs),
				Decoupled:     verdict.Decoupled,
				AuditObserver: len(st.Observers),
			}
		})
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "loadgen: tuple diff under load: %s\n", d)
		}
	}
	traceCoupled := false
	if plane.Enabled() {
		var auditVerdict *bool
		if lg != nil {
			rep, err := wiretrace.Audit(plane, lg, core.ObliviousDNS())
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: trace audit: %v\n", err)
				return 1
			}
			auditVerdict = &rep.Decoupled
			if !rep.Decoupled {
				traceCoupled = true
				rep.WriteReport(os.Stderr)
			}
		}
		ts := traceSummary(plane, wireMode.String(), int(obs.sampled.Load()), auditVerdict)
		obs.update(func(d *bench.Doc) { d.Trace = ts })
		if cs := wiretrace.SummarizeCritical(plane, 3); cs != nil {
			fmt.Fprint(os.Stderr, "loadgen: "+cs.String())
		}
	}
	obs.setPhase("done")

	var doc bench.Doc
	obs.update(func(d *bench.Doc) { doc = *d })
	if ch != nil {
		fs := ch.summary(doc)
		// The fail-closed SLO: errors bounded, the lossy leg recovered
		// its messages, and — the decoupling invariant — degraded
		// availability never bought linkability: the ledger verdict is
		// still DECOUPLED with zero tuple diffs.
		fs.SLOOK = fs.ErrorRate <= ch.maxErrRate && fs.DeliveredFraction >= ch.minDelivered
		if doc.Ledger != nil && (!doc.Ledger.Decoupled || doc.Ledger.TupleDiffs > 0) {
			fs.SLOOK = false
		}
		doc.Faults = fs
		obs.update(func(d *bench.Doc) { d.Faults = fs })
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: marshal: %v\n", err)
		return 1
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: write %s: %v\n", *out, err)
		return 1
	}

	fmt.Fprintf(os.Stderr, "loadgen: odoh  %d req %.0f req/s p50=%.2fms p99=%.2fms errors=%d\n",
		doc.ODoH.Requests, doc.ODoH.Throughput, doc.ODoH.Latency.P50, doc.ODoH.Latency.P99, doc.ODoH.Errors)
	fmt.Fprintf(os.Stderr, "loadgen: mixnet %d msgs %.0f msg/s p50=%.2fms p99=%.2fms delivered=%d lost=%d errors=%d\n",
		doc.Mixnet.Requests, doc.Mixnet.Throughput, doc.Mixnet.Latency.P50, doc.Mixnet.Latency.P99,
		doc.Mixnet.Delivered, doc.Mixnet.Lost, doc.Mixnet.Errors)
	if doc.Ledger != nil {
		fmt.Fprintf(os.Stderr, "loadgen: ledger %d observations, %d tuple diffs, decoupled=%v\n",
			doc.Ledger.Observations, doc.Ledger.TupleDiffs, doc.Ledger.Decoupled)
	}
	if doc.Trace != nil {
		verdict := "unaudited"
		if doc.Trace.AuditDecoupled != nil {
			verdict = "COUPLED"
			if *doc.Trace.AuditDecoupled {
				verdict = "decoupled"
			}
		}
		fmt.Fprintf(os.Stderr, "loadgen: trace mode=%s sampled=%d spans=%d rotations=%d audit=%s\n",
			doc.Trace.Mode, doc.Trace.Sampled, doc.Trace.Spans, doc.Trace.Rotations, verdict)
	}
	if doc.Faults != nil {
		fmt.Fprintf(os.Stderr, "loadgen: faults spec=%q injected=%d shed=%d retries=%d reconnects=%d fallbacks=%d error_rate=%.4f delivered=%.4f slo_ok=%v\n",
			doc.Faults.Spec, doc.Faults.Injected, doc.Faults.Shed, doc.Faults.Retries,
			doc.Faults.Reconnects, ch.fallbacks.Load(), doc.Faults.ErrorRate, doc.Faults.DeliveredFraction, doc.Faults.SLOOK)
	}
	if doc.Faults != nil {
		// Chaos runs are graded on the fail-closed SLO, not on a zero
		// error count — bounded errors under injected faults are the
		// point. A coupled trace plane still fails outright.
		if !doc.Faults.SLOOK || traceCoupled {
			return 1
		}
		return 0
	}
	if doc.ODoH.Errors > 0 || doc.Mixnet.Errors > 0 || traceCoupled ||
		(doc.Ledger != nil && (doc.Ledger.TupleDiffs > 0 || !doc.Ledger.Decoupled)) {
		return 1
	}
	return 0
}

// runODoH drives the sharded-proxy leg: every proxy shard is a real
// net/http server belonging to the same logical operator (one ledger
// observer), clients round-robin across shards, and each client issues
// a churn-model session of oblivious queries over loopback HTTP.
func runODoH(clients, shards, workers int, seed int64, cls *ledger.Classifier, lg *ledger.Ledger, obs *liveObs, plane *wiretrace.Plane, traceSample int, ch *chaos) (bench.Leg, error) {
	var res bench.Leg
	ch.startLeg()

	browsing, err := workload.NewBrowsing(seed, 100, 1.2)
	if err != nil {
		return res, err
	}
	sessions, err := workload.NewSessions(seed+1, 3, 0.8)
	if err != nil {
		return res, err
	}

	zone := dns.NewZone("test")
	for i, name := range browsing.Names {
		zone.Add(dnswire.A(name, 300, [4]byte{198, 51, 100, byte(i)}))
	}
	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{zone}, Ledger: lg}
	origin.Wire = plane
	target, err := odoh.NewTarget(odoh.TargetName, origin, lg)
	if err != nil {
		return res, err
	}
	target.InstrumentWire(plane)
	keyID, pub := target.KeyConfig()

	// All shards share the proxy name: sharding is a deployment detail
	// of one operator, and the derived knowledge tuple must say so.
	proxy := odoh.NewProxy(odoh.ProxyName, target, lg)
	proxy.InstrumentWire(plane)

	// Chaos retry policy, plus the planted fail-open fallback: a plain
	// recursive resolver registered under the proxy operator's name —
	// the operator who ran the oblivious proxy now sees plaintext
	// identity+name, exactly the re-coupling E16 convicts.
	var chaosPolicy resilience.Policy
	var direct *dns.Resolver
	if ch != nil {
		chaosPolicy = resilience.Default("odoh")
		if ch.failOpen {
			chaosPolicy.Mode = resilience.FailOpen
			direct = dns.NewResolver(odoh.ProxyName, []dns.Authority{origin}, lg, nil)
		}
	}
	if cls != nil {
		cls.RegisterIdentity(odoh.ProxyName, "", "", core.NonSensitive)
		cls.RegisterIdentity(odoh.TargetName, "", "", core.NonSensitive)
		cls.RegisterIdentity("Origin", "", "", core.NonSensitive)
		for i, name := range browsing.Names {
			cls.RegisterData(dnswire.CanonicalName(name), fmt.Sprintf("client%06d", i%clients), "", core.Sensitive)
		}
	}

	proxyHandler := odoh.ProxyHandler(proxy, nil, "")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /proxy", func(w http.ResponseWriter, r *http.Request) {
		if ch.proxyDown() {
			// Injected fault, HTTP flavor: the proxy operator is inside
			// a crash window, so every shard hangs briefly and fails —
			// the wall-clock analogue of simnet dropping inbound to a
			// crashed node. Counted apart from organic errors.
			ch.injectedODoH.Add(1)
			time.Sleep(2 * time.Millisecond)
			http.Error(w, "injected fault: proxy crash window", http.StatusServiceUnavailable)
			return
		}
		// ProxyHandler names the client by its peer address; hand it
		// the logical identity instead, on a shallow copy of the
		// request as http.StripPrefix makes.
		if who := r.Header.Get(clientHeader); who != "" {
			r2 := new(http.Request)
			*r2 = *r
			r2.RemoteAddr = who
			r = r2
		}
		proxyHandler.ServeHTTP(w, r)
	})

	servers := make([]*http.Server, shards)
	urls := make([]string, shards)
	for i := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, fmt.Errorf("proxy shard %d: %w", i, err)
		}
		urls[i] = "http://" + ln.Addr().String() + "/proxy"
		servers[i] = &http.Server{Handler: mux}
		go servers[i].Serve(ln)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	httpClient := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers,
	}}

	// Per-client session lengths, drawn up front so workers stay
	// lock-free; registration of client ground truth rides along.
	lengths := make([]int, clients)
	total := 0
	for i := range lengths {
		lengths[i] = sessions.Next()
		total += lengths[i]
		if cls != nil {
			who := fmt.Sprintf("client%06d", i)
			cls.RegisterIdentity(who, who, "", core.Sensitive)
		}
	}

	latencies := make([]int64, total)
	var next, errs, done atomic.Uint64

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker workload stream: Browsing's Zipf rng is not safe
			// for concurrent draws, and a shared lock on it would serialize
			// the very hot path this benchmark measures. Same name universe,
			// worker-decorrelated seed.
			wb, err := workload.NewBrowsing(seed+int64(w)*7919, 100, 1.2)
			if err != nil {
				errs.Add(1)
				obs.odoh.errors.Add(1)
				return
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= clients {
					return
				}
				who := fmt.Sprintf("client%06d", i)
				c := odoh.NewClient(who, keyID, pub)
				traced := plane.Enabled() && i%traceSample == 0
				if traced {
					c.InstrumentWire(plane)
					obs.sampled.Add(1)
				}
				url := urls[i%len(urls)]
				forward := func(clientAddr string, raw []byte) ([]byte, error) {
					return postQuery(httpClient, url, clientAddr, raw, plane)
				}
				query := func(name string) (*dnswire.Message, error) {
					return c.Query(name, dnswire.TypeA, forward)
				}
				if ch != nil {
					// Under chaos every query runs behind the shared
					// resilience layer: wall-clock backoff, retries
					// counted, and — only in the planted -fail-open
					// mode — the direct fallback on exhaustion.
					attempts := 0
					fw := func(clientAddr string, raw []byte) ([]byte, error) {
						attempts++
						return forward(clientAddr, raw)
					}
					rc := &odoh.ResilientClient{Client: c, Policy: chaosPolicy,
						Sleep: time.Sleep, Forwards: []odoh.ForwardFunc{fw}}
					if ch.failOpen {
						rc.Fallback = func(name string, qtype dnswire.Type) (*dnswire.Message, error) {
							ch.fallbacks.Add(1)
							resp := direct.Resolve(who, dnswire.NewQuery(1, name, qtype))
							if resp.RCode != dnswire.RCodeNoError {
								return nil, fmt.Errorf("direct fallback failed: rcode=%v", resp.RCode)
							}
							return resp, nil
						}
					}
					query = func(name string) (*dnswire.Message, error) {
						attempts = 0
						resp, err := rc.Query(name, dnswire.TypeA)
						if attempts > 1 {
							ch.retries.Add(uint64(attempts - 1))
						}
						return resp, err
					}
				}
				for j := 0; j < lengths[i]; j++ {
					slot := done.Add(1) - 1
					obs.odoh.inflight.Add(1)
					name := wb.Next(i)
					if traced && j == 0 {
						// A sampled client's first query targets its own
						// registered name, pinning at least one query whose
						// ground-truth subject is the querier. The rotating
						// plane must keep even that request unlinkable at
						// every split vantage pair; the naive global id
						// deterministically re-links it and is convicted.
						name = browsing.Names[i%len(browsing.Names)]
					}
					t0 := time.Now()
					_, err := query(name)
					d := time.Since(t0)
					obs.odoh.inflight.Add(-1)
					latencies[slot] = d.Nanoseconds()
					obs.odoh.requests.Add(1)
					obs.odoh.latency.Observe(d.Seconds())
					if err != nil {
						errs.Add(1)
						obs.odoh.errors.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	res.Requests = done.Load()
	res.Errors = errs.Load()
	res.Seconds = elapsed.Seconds()
	res.Throughput = float64(res.Requests) / elapsed.Seconds()
	res.Latency = quantiles(latencies[:res.Requests])
	if res.Requests > 0 {
		res.AllocsPerOp = (ms1.Mallocs - ms0.Mallocs) / res.Requests
		res.BytesPerOp = (ms1.TotalAlloc - ms0.TotalAlloc) / res.Requests
	}
	return res, nil
}

// postQuery is the client half of the loadgen proxy protocol: an
// oblivious query POSTed to a shard with the logical identity in a
// header, because ground truth needs stable client names and ephemeral
// ports are recycled across logical clients at this scale.
func postQuery(client *http.Client, url, clientAddr string, raw []byte, plane *wiretrace.Plane) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/oblivious-dns-message")
	req.Header.Set(clientHeader, clientAddr)
	if ctx := plane.TakeHandoff(raw); !ctx.IsZero() {
		req.Header.Set(odoh.TraceHeader, ctx.MarshalHeader())
	}
	resp, err := client.Do(req)
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

// runMixnetLeg drives the relay cascade over the real TCP transport:
// one sender per ten ODoH clients (capped to keep per-message onion
// crypto from dominating the wall clock), batch threshold 8 with a
// timeout flush so stragglers drain. Delivery latency is send-to-open:
// the transport clock is read just before the sender queues the onion
// and again (by the receiver) when the innermost layer is opened, so
// the quantiles include batching delay — the anonymity/latency price
// the paper's mixnet discussion is about.
func runMixnetLeg(clients, relays, workers int, seed int64, obs *liveObs, plane *wiretrace.Plane, traceSample int, ch *chaos) (bench.Leg, error) {
	var res bench.Leg
	ch.startLeg()

	senders := clients / 10
	if senders < 64 {
		senders = 64
	}
	if senders > 50_000 {
		senders = 50_000
	}

	opts := nettransport.Options{
		Seed:           seed,
		DisableCapture: true,
		InboxDepth:     16_384,
	}
	if ch != nil {
		// Chaos tuning: bounded queues plus a shed deadline turn a slow
		// node into typed, counted sheds instead of a stalled writer
		// pool.
		opts.InboxDepth = ch.inboxDepth
		opts.OutDepth = ch.outDepth
		opts.ShedAfter = ch.shedAfter
	}
	nt := nettransport.New(opts)
	defer nt.Close()
	nt.Instrument(telemetry.New(false, obs.metrics))

	var route []mixnet.NodeInfo
	for i := 1; i <= relays; i++ {
		m, err := mixnet.NewMix(nt, fmt.Sprintf("Relay %d", i),
			transport.Addr(fmt.Sprintf("relay%d", i)), 8, 100*time.Millisecond, nil)
		if err != nil {
			return res, err
		}
		m.InstrumentWire(plane)
		route = append(route, m.Info())
	}
	rcv, err := mixnet.NewReceiver(nt, "Receiver", "receiver", false, nil)
	if err != nil {
		return res, err
	}
	rcv.InstrumentWire(plane)
	if ch != nil {
		// Link faults engage at the frame codec, crash windows arm their
		// wall-clock timers now — the leg's t=0.
		nt.ApplyFaults(ch.plan)
	}

	// sendAt[i] is the transport-clock instant sender i queued its
	// onion; slot i is owned by exactly one worker, and the main
	// goroutine reads only after wg.Wait.
	sendAt := make([]time.Duration, senders)

	var next, errs atomic.Uint64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= senders {
					return
				}
				s := &mixnet.Sender{Addr: transport.Addr(fmt.Sprintf("sender%06d", i))}
				if plane.Enabled() && i%traceSample == 0 {
					s.Wire = plane
					obs.sampled.Add(1)
				}
				sendAt[i] = nt.Now()
				obs.mixnet.requests.Add(1)
				if err := s.Send(nt, route, rcv.Info(), []byte(fmt.Sprintf("message %06d", i))); err != nil {
					if ch == nil {
						errs.Add(1)
						obs.mixnet.errors.Add(1)
					}
					// Under chaos a failed send (shed, crashed relay) is
					// retryable, not terminal: the retry rounds below pick
					// it up, and only messages still missing at the end
					// count as errors.
				}
			}
		}()
	}
	wg.Wait()
	nt.Run()

	// delivered returns the set of distinct sender indices whose message
	// reached the receiver; duplicates (a mix flushing a stale batch after
	// a crash window plus our retry of the same index) collapse here.
	delivered := func() map[int]bool {
		got := make(map[int]bool, senders)
		for _, r := range rcv.Inbox() {
			var idx int
			if _, err := fmt.Sscanf(string(r.Body), "message %06d", &idx); err == nil && idx >= 0 && idx < senders {
				got[idx] = true
			}
		}
		return got
	}

	if ch != nil {
		// Retry rounds: resend only the missing indices, pausing between
		// rounds so crash/spike/loss windows expire and restarted nodes
		// finish rebinding. Each resend is a counted retry; send errors
		// (typed sheds, ErrNodeDown) just roll into the next round.
		const maxRounds = 20
		for round := 0; round < maxRounds; round++ {
			got := delivered()
			if len(got) == senders {
				break
			}
			time.Sleep(150 * time.Millisecond)
			for i := 0; i < senders; i++ {
				if got[i] {
					continue
				}
				ch.retries.Add(1)
				s := &mixnet.Sender{Addr: transport.Addr(fmt.Sprintf("sender%06d", i))}
				_ = s.Send(nt, route, rcv.Info(), []byte(fmt.Sprintf("message %06d", i)))
			}
			nt.Run()
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	inbox := rcv.Inbox()
	if ch == nil {
		if got := len(inbox); got != senders {
			return res, fmt.Errorf("receiver got %d of %d messages (lost %d)", got, senders, nt.Lost())
		}
	}

	// Reconstruct per-message delivery latency from the receiver's
	// timestamps: bodies carry the sender index, Received.Time is the
	// transport clock at the moment the innermost layer was opened. Under
	// chaos only the first copy of each index counts.
	latencies := make([]int64, 0, senders)
	seen := make(map[int]bool, senders)
	for _, r := range inbox {
		var idx int
		if _, err := fmt.Sscanf(string(r.Body), "message %06d", &idx); err != nil || idx < 0 || idx >= senders {
			continue
		}
		if seen[idx] {
			continue
		}
		seen[idx] = true
		if d := r.Time - sendAt[idx]; d > 0 {
			latencies = append(latencies, d.Nanoseconds())
			obs.mixnet.latency.Observe(d.Seconds())
		}
	}

	res.Requests = uint64(senders)
	res.Errors = errs.Load()
	if ch != nil {
		undelivered := uint64(senders - len(seen))
		res.Errors += undelivered
		obs.mixnet.errors.Add(undelivered)
		ch.deliveredFrac.Store(uint64(float64(len(seen)) / float64(senders) * 1e6))
		ch.captureTransport(nt)
	}
	res.Seconds = elapsed.Seconds()
	res.Throughput = float64(senders) / elapsed.Seconds()
	res.Latency = quantiles(latencies)
	res.Delivered = nt.Delivered()
	res.Lost = nt.Lost()
	if res.Requests > 0 {
		res.AllocsPerOp = (ms1.Mallocs - ms0.Mallocs) / res.Requests
		res.BytesPerOp = (ms1.TotalAlloc - ms0.TotalAlloc) / res.Requests
	}
	return res, nil
}

func quantiles(ns []int64) bench.Latency {
	if len(ns) == 0 {
		return bench.Latency{}
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		idx := int(q * float64(len(sorted)-1))
		return float64(sorted[idx]) / 1e6
	}
	return bench.Latency{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: at(1)}
}
