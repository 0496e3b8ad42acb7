// Command experiments runs the complete E1-E16 reproduction suite and
// prints a paper-vs-measured report (the content of EXPERIMENTS.md).
//
// Usage:
//
//	experiments                # run everything, GOMAXPROCS-wide
//	experiments E4 E7          # run selected experiment ids
//	experiments -parallel 1    # sequential (byte-identical output)
//	experiments -metrics m.prom -audit a.jsonl E2 E10
//	experiments -trace-mode rotate -wirespans w.jsonl E2 E4
//	experiments -static             # append static ⊇ measured conformance
//	experiments -transport tcp      # socket experiments over real loopback TCP
//
// -static appends a per-experiment conformance section: each
// experiment's measured knowledge tuples (derived from the run's
// ledger) are checked against the static tuples derived from the
// protocol's declared message schemas (internal/schema/catalog). Any
// measured component the declarations never licensed is rendered with
// the offending handler and field plus the run's provenance evidence
// chain, and the exit status is nonzero. Static-minus-measured gaps
// are flagged as declared-but-unexercised. The section is derived from
// declarations and deterministic runs only, so its bytes are identical
// across -parallel settings and transports.
//
// Experiments execute on a worker pool (-parallel N, default
// GOMAXPROCS) that also runs the independent parts an experiment splits
// its work into (E5's seven PGPP simulations), so N bounds the
// goroutines running experiment code and -parallel 1 is sequential.
// Results are always reported in id order, so the report bytes do not
// depend on the parallelism. Exit status is nonzero if any experiment
// fails to reproduce.
//
// Observability flags (all off by default; the report on stdout is
// byte-identical with or without them):
//
//	-trace-mode m     wire tracing: rotate (re-key the trace id at each
//	                  decoupling boundary) or naive (one global id, the
//	                  planted leak); each experiment's trace plane is
//	                  audited against its ledger, and a COUPLED plane
//	                  is a nonzero exit
//	-wirespans f      the wire spans as JSONL (needs -trace-mode); with
//	                  the observed values stripped, the bytes are
//	                  identical across runs and -parallel settings
//	-metrics f.prom   counters and histograms in Prometheus text
//	                  exposition format
//	-audit f.jsonl    per-experiment provenance audits (canonical
//	                  observation ids, protocol phases, handle aliases,
//	                  linkage partitions) as JSONL — byte-identical across
//	                  runs and -parallel settings for the
//	                  deterministic experiments
//	-stats            per-experiment ledger observation counts on
//	                  stderr
//	-cpuprofile f     pprof CPU profile of the whole run
//	-memprofile f     pprof heap profile written at exit
//	-listen addr      serve /metrics (Prometheus text exposition),
//	                  /statusz, and /debug/pprof over HTTP while the
//	                  run executes — live counters for a long -explore
//	                  sweep or a profiled reproduction run
//
// Schedule exploration (-explore) switches the command into seed-sweep
// model-checking mode: every fault-tolerant probe scenario is run under
// -seeds synthesized (fault plan, schedule) cases, every registered
// experiment under -seeds permuted schedules, and the invariant oracles
// are asserted after each case quiesces. Violating cases are shrunk to
// minimal counterexamples; -traces DIR serializes them as replayable
// trace files for `decouple replay`. The report is byte-reproducible
// for a fixed seed list. Exit status is nonzero if any fail-closed case
// violates an oracle, or if the planted fail-open probe escapes
// detection.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"

	"decoupling/internal/experiments"
	"decoupling/internal/explore"
	"decoupling/internal/nettransport"
	"decoupling/internal/provenance"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
	"decoupling/internal/transport"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run executes the selected experiments (all when no ids are given),
// writing the report to out and diagnostics to errw, and returns the
// process exit code.
func run(out, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(errw)
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"number of goroutines running experiments and their parts (1 = sequential)")
	doStatic := fs.Bool("static", false,
		"append the static-conformance section: check static ⊇ measured for every experiment against its declared schemas; any violation is a nonzero exit")
	transportName := fs.String("transport", "simnet",
		"transport for socket-capable experiments: simnet (in-process virtual network) or tcp (real loopback sockets)")
	traceMode := fs.String("trace-mode", "off",
		"wire-trace propagation policy: off, rotate (re-key the trace id at decoupling boundaries), or naive (one global id — must fail the audit)")
	wirespansFile := fs.String("wirespans", "", "write the wire spans as JSONL to `file` (needs -trace-mode)")
	metricsFile := fs.String("metrics", "", "write metrics in Prometheus text format to `file`")
	auditFile := fs.String("audit", "", "write per-experiment provenance audits as JSONL to `file`")
	stats := fs.Bool("stats", false, "print per-experiment ledger stats to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to `file`")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to `file`")
	doExplore := fs.Bool("explore", false,
		"seed-sweep schedule exploration: model-check the decoupling invariants instead of printing the report")
	seeds := fs.Int("seeds", 64, "number of exploration seeds (with -explore)")
	seedBase := fs.Uint64("seedbase", 1, "first exploration seed (with -explore)")
	tracesDir := fs.String("traces", "",
		"write minimized counterexample traces to `dir` (with -explore)")
	listenAddr := fs.String("listen", "",
		"serve /metrics, /statusz, and /debug/pprof on this `address` while the run executes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *doExplore {
		return runExplore(out, errw, fs.Args(), *seeds, *seedBase, *parallel, *tracesDir, *metricsFile, *listenAddr)
	}
	wireMode, err := wiretrace.ParseMode(*traceMode)
	if err != nil {
		fmt.Fprintf(errw, "experiments: %v\n", err)
		return 2
	}
	if *wirespansFile != "" && wireMode == wiretrace.ModeOff {
		fmt.Fprintln(errw, "experiments: -wirespans needs -trace-mode rotate or naive")
		return 2
	}
	var transportFactory func(seed int64) transport.Runner
	switch *transportName {
	case "simnet", "":
		// nil factory: socket-capable experiments build their default
		// in-process simnet transport.
	case "tcp":
		transportFactory = func(seed int64) transport.Runner {
			return nettransport.New(nettransport.Options{Seed: seed})
		}
	default:
		fmt.Fprintf(errw, "experiments: unknown -transport %q (want simnet or tcp)\n", *transportName)
		return 2
	}

	want := map[string]bool{}
	for _, a := range fs.Args() {
		want[a] = true
	}
	var selected []experiments.Experiment
	for _, exp := range experiments.All() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		selected = append(selected, exp)
	}
	if len(selected) == 0 {
		fmt.Fprintln(errw, "experiments: no matching experiment ids")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(errw, "experiments: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(errw, "experiments: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(errw, "experiments: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(errw, "experiments: %v\n", err)
			}
		}()
	}

	telemetryOn := *metricsFile != "" || *listenAddr != ""
	// -audit turns the phase marker on so ledger observations join
	// their protocol phase.
	runner := experiments.Runner{Workers: *parallel, Phases: *auditFile != "", WireMode: wireMode, Transport: transportFactory}
	if telemetryOn {
		runner.Metrics = telemetry.NewMetrics()
	}
	if *listenAddr != "" {
		srv, addr, err := telemetry.ServeObs(*listenAddr, runner.Metrics, nil)
		if err != nil {
			fmt.Fprintf(errw, "experiments: listen %s: %v\n", *listenAddr, err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(errw, "experiments: observability on http://%s/metrics /statusz /debug/pprof\n", addr)
	}
	results := runner.Run(selected)

	// Export telemetry artifacts before pass/fail accounting so a
	// failing reproduction still leaves its artifacts behind for
	// diagnosis.
	if *metricsFile != "" {
		if err := writeMetrics(*metricsFile, runner.Metrics); err != nil {
			fmt.Fprintf(errw, "experiments: %v\n", err)
			return 2
		}
	}
	if *auditFile != "" {
		if err := writeAudits(*auditFile, results); err != nil {
			fmt.Fprintf(errw, "experiments: %v\n", err)
			return 2
		}
	}
	if *wirespansFile != "" {
		if err := writeWireSpans(*wirespansFile, results); err != nil {
			fmt.Fprintf(errw, "experiments: %v\n", err)
			return 2
		}
	}

	failures := 0
	for _, rr := range results {
		if rr.Err != nil {
			fmt.Fprintf(errw, "experiments: %v\n", rr.Err)
			return 1
		}
		fmt.Fprintln(out, rr.Result.Render())
		if !rr.Result.Pass {
			failures++
		}
	}
	if *stats {
		printStats(errw, results)
	}
	if telemetryOn {
		printSummary(errw, results, runner.Metrics)
	}
	if wireMode != wiretrace.ModeOff {
		coupled := auditWirePlanes(errw, results)
		if coupled > 0 {
			fmt.Fprintf(errw, "experiments: trace plane COUPLED in %d experiment(s) — the tracing layer leaks linkage the protocol withholds\n", coupled)
			return 1
		}
	}
	if *doStatic {
		sviol, err := experiments.RenderStatic(out, results)
		if err != nil {
			fmt.Fprintf(errw, "experiments: %v\n", err)
			return 2
		}
		if sviol > 0 {
			fmt.Fprintf(errw, "experiments: %d static-conformance violation(s) — a run learned knowledge its declared schemas never licensed\n", sviol)
			return 1
		}
	}
	if failures > 0 {
		fmt.Fprintf(errw, "experiments: %d experiment(s) failed to reproduce\n", failures)
		return 1
	}
	fmt.Fprintf(out, "all %d experiments reproduce the paper\n", len(selected))
	return 0
}

// auditWirePlanes runs the trace-plane audit for every experiment that
// retained a ledger and expected model: the span stores are replayed
// as knowledge ledgers and held to exactly the protocol's tuples and
// linkage. Returns how many experiments audited COUPLED.
func auditWirePlanes(errw io.Writer, results []experiments.RunnerResult) int {
	coupled := 0
	for _, rr := range results {
		if rr.Wire == nil || rr.Result == nil || rr.Result.Ledger == nil || rr.Result.Expected == nil {
			continue
		}
		if rr.ID == "E4" {
			// E4 runs two protocol halves against two ledgers but one
			// plane; its halves are audited by the library tests.
			continue
		}
		rep, err := wiretrace.Audit(rr.Wire, rr.Result.Ledger, rr.Result.Expected)
		if err != nil {
			fmt.Fprintf(errw, "experiments: trace audit %s: %v\n", rr.ID, err)
			coupled++
			continue
		}
		verdict := "DECOUPLED"
		if !rep.Decoupled {
			verdict = "COUPLED"
			coupled++
		}
		fmt.Fprintf(errw, "experiments: trace audit %s: %s (%d spans, mode %s)\n", rr.ID, verdict, rep.Spans, rep.Mode)
		if !rep.Decoupled {
			rep.WriteReport(errw)
		}
	}
	return coupled
}

// writeWireSpans concatenates every experiment's wire spans as strict
// JSONL in input (id) order. Per-experiment planes are seeded by slot
// and simulator-backed scenarios stamp spans with the virtual clock,
// so the bytes are independent of -parallel.
func writeWireSpans(path string, results []experiments.RunnerResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, rr := range results {
		if err := wiretrace.WriteJSONL(f, rr.Wire); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// runExplore executes the seed-sweep schedule explorer. ids filters
// both the probes and the experiments (empty = everything); parallel
// sizes the case worker pool (the report bytes do not depend on it).
func runExplore(out, errw io.Writer, ids []string, seeds int, seedBase uint64, parallel int, tracesDir, metricsFile, listenAddr string) int {
	if seeds < 1 {
		fmt.Fprintln(errw, "experiments: -seeds must be at least 1")
		return 2
	}
	want := map[string]bool{}
	for _, a := range ids {
		want[a] = true
	}
	opts := explore.Options{
		Seeds:   explore.SeedList(seedBase, seeds),
		Workers: parallel,
	}
	var metrics *telemetry.Metrics
	if metricsFile != "" || listenAddr != "" {
		metrics = telemetry.NewMetrics()
		opts.Tel = telemetry.New(false, metrics)
	}
	if listenAddr != "" {
		srv, addr, err := telemetry.ServeObs(listenAddr, metrics, nil)
		if err != nil {
			fmt.Fprintf(errw, "experiments: listen %s: %v\n", listenAddr, err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(errw, "experiments: observability on http://%s/metrics /statusz /debug/pprof\n", addr)
	}
	matched := map[string]bool{}
	for _, p := range experiments.Scenarios() {
		if len(want) > 0 && !want[p.ID] {
			continue
		}
		matched[p.ID] = true
		opts.Probes = append(opts.Probes, p)
	}
	for _, c := range explore.DefaultExperimentCases() {
		if len(want) > 0 && !want[c.Exp.ID] {
			continue
		}
		matched[c.Exp.ID] = true
		opts.Experiments = append(opts.Experiments, c)
	}
	for id := range want {
		if !matched[id] {
			fmt.Fprintf(errw, "experiments: no probe or experiment %q\n", id)
			return 2
		}
	}
	if len(opts.Probes)+len(opts.Experiments) == 0 {
		fmt.Fprintln(errw, "experiments: nothing to explore")
		return 2
	}

	report := explore.Sweep(opts)
	fmt.Fprint(out, report.Render())

	if metricsFile != "" {
		if err := writeMetrics(metricsFile, metrics); err != nil {
			fmt.Fprintf(errw, "experiments: %v\n", err)
			return 2
		}
	}
	if tracesDir != "" {
		if err := writeCounterexamples(tracesDir, report); err != nil {
			fmt.Fprintf(errw, "experiments: %v\n", err)
			return 2
		}
	}
	if report.FailClosedViolations() > 0 {
		return 1
	}
	if report.PlantedSwept() && !report.PlantedFound() {
		return 1
	}
	return 0
}

// writeCounterexamples serializes every minimized finding as a replay
// trace file under dir, named <kind>-<id>.trace.json.
func writeCounterexamples(dir string, report *explore.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range report.Findings {
		b, err := explore.EncodeTrace(f.Trace)
		if err != nil {
			return fmt.Errorf("encoding %s %s trace: %w", f.Kind, f.ID, err)
		}
		path := filepath.Join(dir, f.Kind+"-"+f.ID+".trace.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeAudits derives a provenance audit for every experiment that
// retained its ledger and expected model, concatenated as JSONL in id
// order. Each audit's header line carries the experiment id.
func writeAudits(path string, results []experiments.RunnerResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, rr := range results {
		if rr.Result == nil || rr.Result.Ledger == nil || rr.Result.Expected == nil {
			continue
		}
		a, err := provenance.Derive(rr.Result.Ledger, rr.Result.Expected)
		if err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", rr.ID, err)
		}
		a.ID = rr.ID
		if err := provenance.WriteJSONL(f, a); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func writeMetrics(path string, m *telemetry.Metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteProm(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStats renders the -stats ledger summary: per experiment, how
// many observations each observer admitted and how many linkage handles
// it holds.
func printStats(w io.Writer, results []experiments.RunnerResult) {
	fmt.Fprintln(w, "ledger stats:")
	for _, rr := range results {
		if rr.Result == nil || rr.Result.Ledger == nil {
			continue
		}
		st := rr.Result.Ledger.Stats()
		fmt.Fprintf(w, "  %s: %d observations\n", rr.ID, st.Total)
		for _, o := range st.Observers {
			fmt.Fprintf(w, "    %-24s %6d obs %6d handles\n", o.Observer, o.Observations, o.Handles)
		}
	}
}

// printSummary renders the post-run telemetry digest: the slowest
// experiments by wall time (with their virtual elapsed time alongside)
// and the hottest simulated links by bytes delivered.
func printSummary(w io.Writer, results []experiments.RunnerResult, m *telemetry.Metrics) {
	byWall := make([]experiments.RunnerResult, 0, len(results))
	for _, rr := range results {
		if rr.Result != nil {
			byWall = append(byWall, rr)
		}
	}
	sort.SliceStable(byWall, func(i, j int) bool {
		return byWall[i].Result.WallElapsed > byWall[j].Result.WallElapsed
	})
	if len(byWall) > 5 {
		byWall = byWall[:5]
	}
	fmt.Fprintln(w, "slowest experiments (wall | virtual):")
	for _, rr := range byWall {
		fmt.Fprintf(w, "  %-4s %12v | %v\n", rr.ID, rr.Result.WallElapsed.Round(10_000), rr.Result.VirtualElapsed)
	}
	links := m.CounterSeries(telemetry.MetricSimnetBytes)
	if len(links) > 5 {
		links = links[:5]
	}
	if len(links) > 0 {
		fmt.Fprintln(w, "hottest links (bytes delivered):")
		for _, sv := range links {
			fmt.Fprintf(w, "  %-4s %s -> %s: %.0f\n",
				sv.Label("experiment"), sv.Label("src"), sv.Label("dst"), sv.Value)
		}
	}
}
