package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"decoupling/internal/dcrypto/hpke"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/nettransport"
	"decoupling/internal/odoh"
	"decoupling/internal/transport"
)

// Probes time one layer at a time outside the request path, on the
// workload's own message sizes. Every workload runs the same probes, so
// a layer's cost can be compared across workloads and commits even
// where the workload's own path does not cross that layer. The ledger
// layer is priced on the workload's own ledgers where it has them (the
// ODoH workloads), and otherwise on a ledger filled by in-process ODoH
// traffic from the same generator.

// perOp returns the median, over batches, of fn's mean time per call,
// in ns.
func perOp(batches, iters int, fn func(i int)) float64 {
	var per []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn(b*iters + i)
		}
		per = append(per, float64(time.Since(start))/float64(iters))
	}
	return median(per)
}

// probeSink keeps probe results reachable so the compiler cannot drop
// the calls that produce them.
var probeSink any

func runProbes(cfg config, out *outcome) ([]metric, error) {
	b, hpkeSize := cfg.probeBatches, out.hpkeSize
	kp, err := hpke.GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	info, plain := []byte("benchmark probe"), make([]byte, hpkeSize)
	const sealed = 64
	encs, cts := make([][]byte, sealed), make([][]byte, sealed)
	for i := range encs {
		if encs[i], cts[i], err = hpke.Seal(kp.PublicKey(), info, nil, plain); err != nil {
			return nil, err
		}
	}
	var probeErr error
	seal := perOp(b, 200, func(int) {
		enc, ctx, err := hpke.SetupSender(kp.PublicKey(), info)
		if err != nil {
			probeErr = err
			return
		}
		probeSink = append(enc, ctx.Seal(nil, plain)...)
	})
	open := perOp(b, 200, func(i int) {
		ctx, err := hpke.SetupRecipient(encs[i%sealed], kp, info)
		if err == nil {
			probeSink, err = ctx.Open(nil, cts[i%sealed])
		}
		if err != nil {
			probeErr = err
		}
	})

	// A query and its answer, each encoded and decoded once: the DNS
	// codec work one ODoH query does at the client and the target.
	q := dnswire.NewQuery(1, "site000.test", dnswire.TypeA)
	resp := q.Reply()
	resp.Answers = []dnswire.RR{dnswire.A("site000.test", 300, [4]byte{198, 51, 100, 0})}
	codec := perOp(b, 2000, func(int) {
		for _, m := range []*dnswire.Message{q, resp} {
			wire, err := m.Encode()
			if err == nil {
				probeSink, err = dnswire.Decode(wire)
			}
			if err != nil {
				probeErr = err
			}
		}
	})

	frame := transport.Message{Src: "relay1", Dst: "relay2", Payload: make([]byte, hpke.NEnc+hpkeSize+16)}
	var buf []byte
	framing := perOp(b, 20_000, func(int) {
		var err error
		if buf, err = nettransport.AppendFrame(buf[:0], frame); err == nil {
			probeSink, _, err = nettransport.DecodeFrame(buf)
		}
		if err != nil {
			probeErr = err
		}
	})
	if probeErr != nil {
		return nil, fmt.Errorf("probe: %w", probeErr)
	}

	lc := out.ledger
	if len(lc.sawBatch) == 0 {
		if lc, err = inProcessLedger(cfg); err != nil {
			return nil, err
		}
	}
	return append([]metric{
		{"hpke.setup_seal_us", seal / 1e3, "us"},
		{"hpke.setup_open_us", open / 1e3, "us"},
		{"dnswire.encode_decode_us", codec / 1e3, "us"},
		{"nettransport.frame_codec_ns", framing, "ns"},
	}, lc.metrics()...), nil
}

// ledgerCosts prices the ledger layer on ledgers ODoH traffic filled.
type ledgerCosts struct {
	sawBatch   []float64 // µs per SawBatch, replaying a run's batches
	heapPerObs []float64 // live heap bytes per observation of the replay's ledger
	derive     []float64 // ms per DeriveSystem
	analyze    []float64 // µs per CompareTuples + Analyze
}

func (lc *ledgerCosts) metrics() []metric {
	return []metric{
		{"ledger.sawbatch_us", median(lc.sawBatch), "us"},
		{"ledger.derive_ms", median(lc.derive), "ms"},
		{"ledger.heap_bytes_per_obs", median(lc.heapPerObs), "B"},
		{"core.analyze_us", median(lc.analyze), "us"},
	}
}

// replay prices SawBatch and the ledger's heap on a ledger an ODoH run
// filled with queries queries. It replays the proxy's and the target's
// observations, in the run's order, into a fresh ledger with the run's
// classifier. Each query put one batch of the same size in front of
// each of them, so each observer's log splits into queries equal
// batches. It records the median time per SawBatch over chunks of 500
// queries, and the live heap the fresh ledger holds per observation,
// with its strings copied so that it owns them as the run's ledger does.
func (lc *ledgerCosts) replay(lg *ledger.Ledger, queries int) error {
	observers := []string{odoh.ProxyName, odoh.TargetName}
	before := liveHeapMB()
	batches := make([][][]ledger.Entry, len(observers)) // [observer][query]
	for i, who := range observers {
		obs := lg.ByObserver(who)
		if len(obs) == 0 || len(obs)%queries != 0 {
			return fmt.Errorf("ledger replay: %s made %d observations over %d queries", who, len(obs), queries)
		}
		k := len(obs) / queries
		batches[i] = make([][]ledger.Entry, queries)
		for q := range batches[i] {
			entries := make([]ledger.Entry, k)
			for j, o := range obs[q*k : (q+1)*k] {
				handles := make([]string, len(o.Handles))
				for h, v := range o.Handles {
					handles[h] = strings.Clone(v)
				}
				entries[j] = ledger.Entry{Kind: o.Kind, Value: strings.Clone(o.Value), Handles: handles}
			}
			batches[i][q] = entries
		}
	}
	fresh := ledger.New(lg.Classifier(), nil)
	const chunk = 500
	var per []float64
	for lo := 0; lo < queries; lo += chunk {
		hi := min(lo+chunk, queries)
		start := time.Now()
		for q := lo; q < hi; q++ {
			for i, who := range observers {
				fresh.SawBatch(who, batches[i][q])
			}
		}
		per = append(per, us(time.Since(start))/float64(len(observers)*(hi-lo)))
	}
	batches = nil // the fresh ledger alone holds the copied strings now
	after := liveHeapMB()
	runtime.KeepAlive(lg) // live at both measurements, so it cancels out
	lc.sawBatch = append(lc.sawBatch, median(per))
	lc.heapPerObs = append(lc.heapPerObs, (after-before)*(1<<20)/float64(fresh.Len()))
	return nil
}

// inProcessLedger prices the ledger layer for a workload that keeps no
// ledger of its own. An ODoH run in one goroutine, with the client
// calling Proxy.Forward directly, fills a ledger from the ODoH
// workloads' generator; the ledger is then audited and replayed as the
// ODoH workloads' own ledgers are.
func inProcessLedger(cfg config) (ledgerCosts, error) {
	var lc ledgerCosts
	sessions, names, err := odohSessions(cfg.seed, 0, cfg.probeQueries)
	if err != nil {
		return lc, err
	}
	st, err := newODoHStack(sessions, names, false)
	if err != nil {
		return lc, err
	}
	target, err := odoh.NewTarget(odoh.TargetName, st.origin, st.lg)
	if err != nil {
		return lc, err
	}
	keyID, pub := target.KeyConfig()
	proxy := odoh.NewProxy(odoh.ProxyName, target, st.lg)
	for _, s := range sessions {
		c := odoh.NewClient(clientName(s[0].client), keyID, pub)
		for _, q := range s {
			resp, err := c.Query(q.name, dnswire.TypeA, proxy.Forward)
			if err == nil {
				err = checkAnswer(resp, q.name, st.want[q.name])
			}
			if err != nil {
				return lc, fmt.Errorf("ledger probe: %w", err)
			}
		}
	}
	var out outcome
	postLoadAudits(&out, st.lg, cfg.auditRepeats)
	if out.failed > 0 {
		return lc, fmt.Errorf("ledger probe: %s", out.checks[0])
	}
	lc = out.ledger
	return lc, lc.replay(st.lg, cfg.probeQueries)
}
