// Command benchmark is the repository's one repeatable benchmark. It
// drives the decoupled systems through their public functions on four
// workloads, checks every output, and prints one `workload metric value
// unit` line per metric followed by the same data as one JSON object.
//
//	go -C benchmark run . -seed 1                       # all four workloads
//	go -C benchmark run . -workload mixnet-open -seed 2 -seconds 10
//	go -C benchmark run . -workload odoh-closed -seed 1 -trace 1
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// wrappers in the path. With -trace 1 the run measures the same inputs
// twice, untraced and then with the benchmark's wrappers recording
// spans, and reports per-layer costs instead; the spans are written as
// JSONL (see -spans). A failed check makes the exit status nonzero.
// README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"decoupling/internal/experiments"
)

// config holds one run's inputs. Sizes are fixed by defaultConfig;
// tests shrink them with tinyConfig, so there are no size flags.
type config struct {
	seed    int64
	seconds time.Duration

	odohQueries  int // timed queries per round
	odohWarmup   int // queries per round issued during set-up
	auditEvery   int // odoh-live-audit: completed queries per audit epoch
	auditRepeats int // full audits after each round's load

	mixRate      float64 // messages per second offered
	mixRound     time.Duration
	mixWarmup    int
	mixThreshold int
	mixTimeout   time.Duration

	reproduceWarmups int
	experiments      []experiments.Experiment

	probeQueries int // queries of the in-process ODoH ledger priced for workloads without one
	probeBatches int // each probe reports the median of this many batches

	// Planted faults, set only by tests: a zone record that answers with
	// the wrong address, and a mixnet message that is never sent.
	plantWrongAnswer bool
	plantDrop        bool
}

func defaultConfig(seed int64, seconds time.Duration) config {
	return config{
		seed: seed, seconds: seconds,
		odohQueries: 20_000, odohWarmup: 500, auditEvery: 1_000, auditRepeats: 3,
		mixRate: 1_000, mixRound: 5 * time.Second, mixWarmup: 64,
		mixThreshold: 8, mixTimeout: 100 * time.Millisecond,
		reproduceWarmups: 2, experiments: experiments.All(),
		probeQueries: 2_000, probeBatches: 9,
	}
}

// clients is the number of load-generating goroutines, and for the
// ODoH workloads the number of HTTP connections: one per CPU of the
// 2-vCPU machine the bounds were set on, so the generator never
// outnumbers the cores it shares with the system under test.
const clients = 2

// outcome is what one pass of a workload measured.
type outcome struct {
	setups    []float64 // seconds per set-up
	phases    []phase
	heaps     []float64 // MB live after each round's load
	attempted int
	failed    int      // failed operations plus failed checks
	checks    []string // one line per failed check
	notes     []metric // workload-specific detail for the report
	hpkeSize  int      // plaintext bytes of the workload's HPKE layer
	layers    map[string]time.Duration
	ledger    ledgerCosts // the ODoH workloads' own ledgers, priced
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// failEach counts every error as a failure and reports the first few.
func (o *outcome) failEach(errs []error) {
	for i, err := range errs {
		if i < 3 {
			o.fail("%v", err)
		} else {
			o.failed++
		}
	}
}

func (o *outcome) note(name string, value float64, unit string) {
	o.notes = append(o.notes, metric{name, value, unit})
}

func (o *outcome) ops() int {
	n := 0
	for _, p := range o.phases {
		n += len(p.ops)
	}
	return n
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

// workloads maps each workload name to the function that runs it. A
// nil tracer is the untraced pass.
var workloads = map[string]func(config, *tracer) (*outcome, error){
	"odoh-closed":     func(c config, t *tracer) (*outcome, error) { return runODoH(c, t, false) },
	"odoh-live-audit": func(c config, t *tracer) (*outcome, error) { return runODoH(c, t, true) },
	"mixnet-open":     runMixnet,
	"reproduce":       runReproduce,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the JSON object the run ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, defaultConfig))
}

// realMain runs the command; newConfig supplies the sizes for a seed
// and a measuring time.
func realMain(args []string, stdout, stderr io.Writer, newConfig func(int64, time.Duration) config) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "workload seed (required): the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "seconds of load each pass measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from an untraced and a traced pass")
	spans := fs.String("spans", "", "with -trace 1, write spans as JSONL here (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames()
	}
	switch {
	case !seedSet:
		fmt.Fprintln(stderr, "benchmark: -seed is required")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "benchmark: -seconds must be > 0")
		return 2
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", n, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	fmt.Fprintf(stderr, "# config seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d go=%s clients=%d\n",
		*seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), clients)

	code := 0
	for _, n := range names {
		cfg := newConfig(*seed, time.Duration(*seconds*float64(time.Second)))
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", n, *seed)
		}
		res, err := runWorkload(n, cfg, *trace == 1, path, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		blob, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", blob)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload, prints its metric lines and report,
// and returns the result object.
func runWorkload(name string, cfg config, traced bool, spansPath string, stdout, stderr io.Writer) (*result, error) {
	run := workloads[name]
	var metrics []metric
	var outs []*outcome
	if !traced {
		out, err := run(cfg, nil)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		metrics = endToEnd(out)
	} else {
		half := cfg
		half.seconds = cfg.seconds / 2
		plain, err := run(half, nil)
		if err != nil {
			return nil, err
		}
		tr := &tracer{t0: time.Now()}
		withSpans, err := run(half, tr)
		if err != nil {
			return nil, err
		}
		outs = append(outs, plain, withSpans)
		spans := tr.snapshot()
		if err := writeSpans(spansPath, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "# %s spans %d written to %s\n", name, len(spans), spansPath)
		if metrics, err = perLayer(stderr, name, cfg, plain, withSpans, spans); err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metricJSON{}}
	for _, out := range outs {
		res.Attempted += out.attempted
		res.Failed += out.failed
		for _, c := range out.checks {
			fmt.Fprintf(stderr, "# %s CHECK FAILED: %s\n", name, c)
		}
		for _, m := range out.notes {
			fmt.Fprintf(stderr, "# %s detail %s %.6g %s\n", name, m.Name, m.Value, m.Unit)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v: the run measured too little", m.Name, m.Value)
		}
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", name, m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = metricJSON{m.Value, m.Unit}
	}
	fmt.Fprintf(stderr, "# %s checks: attempted=%d failed=%d correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// endToEnd derives the end-to-end metrics from an untraced pass.
func endToEnd(out *outcome) []metric {
	var thr, p50, p99 []float64
	var cpu time.Duration
	for _, p := range out.phases {
		for _, w := range windowStats(p.ops) {
			thr = append(thr, w.throughput)
			p50 = append(p50, w.p50)
			p99 = append(p99, w.p99)
		}
		cpu += p.cpu
	}
	return []metric{
		{"setup_s", median(out.setups), "s"},
		{"throughput_ops_s", median(thr), "1/s"},
		{"latency_p50_ms", median(p50), "ms"},
		{"latency_p99_ms", median(p99), "ms"},
		{"cpu_us_per_op", us(cpu) / float64(out.ops()), "us"},
		{"heap_mb", median(out.heaps), "MB"},
	}
}

// meanLatency is the mean op latency of a pass, in ms.
func meanLatency(out *outcome) float64 {
	var lat []float64
	for _, p := range out.phases {
		for _, o := range p.ops {
			lat = append(lat, ms(o.latency))
		}
	}
	return mean(lat)
}

// layerMeans returns each layer's mean self time per op, in ms: span
// self times plus any layer the workload accounts for in aggregate.
func layerMeans(out *outcome, spans []span) map[string]float64 {
	ops := float64(out.ops())
	means := map[string]float64{}
	for name, d := range selfTimes(spans) {
		means[name] += ms(d) / ops
	}
	for name, d := range out.layers {
		means[name] += ms(d) / ops
	}
	return means
}

// reconcileLimit is how far the per-layer mean self times may sum from
// the traced mean latency before the traced run fails its check.
const reconcileLimit = 0.05

// perLayer derives the per-layer metrics from the untraced and traced
// passes plus the layer probes, and prints the traced pass's per-layer
// self times and the two reconciliations. Self times that do not sum to
// the traced mean latency within reconcileLimit are a failed check of
// the traced pass; the probe reconciliation is only reported.
func perLayer(w io.Writer, name string, cfg config, plain, traced *outcome, spans []span) ([]metric, error) {
	means := layerMeans(traced, spans)
	layers := make([]string, 0, len(means))
	sum := 0.0
	for l, v := range means {
		layers = append(layers, l)
		sum += v
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "# %s self %s %.4f ms/op\n", name, l, means[l])
	}
	e2e := meanLatency(traced)
	off := math.Abs(sum/e2e - 1)
	fmt.Fprintf(w, "# %s reconcile self-sum %.4f ms vs traced mean %.4f ms: %.2f%% off (limit %.0f%%)\n",
		name, sum, e2e, 100*off, 100*reconcileLimit)
	if off > reconcileLimit {
		traced.fail("per-layer self times sum to %.4f ms against a traced mean latency of %.4f ms, %.1f%% off, over %.0f%%",
			sum, e2e, 100*off, 100*reconcileLimit)
	}

	probe, err := runProbes(cfg, traced)
	if err != nil {
		return nil, err
	}
	// The probes price the ODoH hot path from outside: one HPKE set-up
	// and seal, one set-up and open, a query and a response through the
	// DNS codec, and the proxy's and target's ledger batches. The probes
	// run alone, so they cannot price contention: on odoh-live-audit the
	// proxy and target also wait for the auditor, and the probes fall
	// short of the 25% target there.
	if client, ok := means["odoh.client"]; ok {
		p := map[string]float64{}
		for _, m := range probe {
			p[m.Name] = m.Value
		}
		model := (p["hpke.setup_seal_us"] + p["hpke.setup_open_us"] + p["dnswire.encode_decode_us"] + 2*p["ledger.sawbatch_us"]) / 1000
		measured := client + means["odoh.proxy_target"]
		poff := math.Abs(model/measured - 1)
		met := "met"
		if poff > 0.25 {
			met = "NOT MET"
		}
		fmt.Fprintf(w, "# %s reconcile probes %.4f ms vs odoh self %.4f ms: %.1f%% off, 25%% target %s (reported, not checked)\n",
			name, model, measured, 100*poff, met)
	}

	var allocs, bytes uint64
	for _, p := range plain.phases {
		allocs += p.allocs
		bytes += p.bytes
	}
	n := float64(plain.ops())
	return append(probe,
		metric{"runtime.allocs_per_op", float64(allocs) / n, "count"},
		metric{"runtime.bytes_per_op", float64(bytes) / n, "B"},
		metric{"trace.overhead_frac", e2e/meanLatency(plain) - 1, "frac"},
		metric{"trace.reconcile_err_frac", off, "frac"},
		metric{"trace.spans_per_op", float64(len(spans)) / float64(traced.ops()), "count"},
	), nil
}

var errNoWork = errors.New("the run completed no operations")
