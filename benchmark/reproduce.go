package main

import (
	"fmt"
	"time"

	"decoupling/internal/dnswire"
	"decoupling/internal/experiments"
)

// The reproduce workload runs the E1–E16 paper reproduction, as
// experiments.RunAll(clients) does, over and over: simnet, the protocol
// state machines, small per-experiment ledgers and the adversary/core
// analysis, with hardly any loopback load. One op is one whole suite,
// the cost a researcher pays per reproduction. The experiments are
// seeded internally, so -seed does not change this workload's inputs.
func runReproduce(cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{}
	if wire, err := dnswire.NewQuery(1, "site000.test", dnswire.TypeA).Encode(); err == nil {
		out.hpkeSize = len(wire)
	}
	// Warm-up suites fill caches and finish lazy set-up; they are the
	// workload's set-up.
	for i := 0; i < cfg.reproduceWarmups; i++ {
		start := time.Now()
		check(out, cfg.experiments, suite(cfg.experiments, nil))
		out.setups = append(out.setups, time.Since(start).Seconds())
	}

	elapsed := map[string][]float64{}
	m := startMeter()
	ph := phase{}
	t0 := time.Now()
	for time.Since(t0) < cfg.seconds || len(ph.ops) == 0 {
		start := time.Now()
		rs := suite(cfg.experiments, tr)
		end := time.Now()
		ph.ops = append(ph.ops, op{done: end.Sub(t0), latency: end.Sub(start)})
		out.attempted++
		check(out, cfg.experiments, rs)
		for _, r := range rs {
			if r.Result != nil {
				elapsed[r.ID] = append(elapsed[r.ID], ms(r.Result.WallElapsed))
			}
		}
	}
	m.stop(&ph)
	out.phases = append(out.phases, ph)
	out.heaps = append(out.heaps, liveHeapMB())
	for _, e := range cfg.experiments {
		out.note("experiments."+e.ID+"_ms", median(elapsed[e.ID]), "ms")
	}
	return out, nil
}

// suite runs the experiments on clients workers, as
// experiments.RunAll(clients) does for all of them. Traced, each
// experiment's Run is wrapped in a span under one span for the suite.
func suite(all []experiments.Experiment, tr *tracer) []experiments.RunnerResult {
	r := experiments.Runner{Workers: clients}
	if tr == nil {
		return r.Run(all)
	}
	root, start := tr.id(), tr.now()
	exps := append([]experiments.Experiment(nil), all...)
	for i := range exps {
		id, run := exps[i].ID, exps[i].Run
		exps[i].Run = func(ctx experiments.Ctx) (*experiments.Result, error) {
			sid, s := tr.id(), tr.now()
			res, err := run(ctx)
			tr.add(sid, root, root, "experiments."+id, s, tr.now())
			return res, err
		}
	}
	rs := r.Run(exps)
	tr.add(root, 0, root, "reproduce.suite", start, tr.now())
	return rs
}

// check counts a suite as failed unless every result passes.
func check(out *outcome, exps []experiments.Experiment, rs []experiments.RunnerResult) {
	bad := 0
	for _, r := range rs {
		switch {
		case r.Err != nil:
			bad++
			out.checks = append(out.checks, fmt.Sprintf("%s: %v", r.ID, r.Err))
		case r.Result == nil || !r.Result.Pass:
			bad++
			out.checks = append(out.checks, fmt.Sprintf("%s: did not reproduce the paper", r.ID))
		}
	}
	if len(rs) != len(exps) {
		bad++
		out.checks = append(out.checks, fmt.Sprintf("suite returned %d results, want %d", len(rs), len(exps)))
	}
	if bad > 0 {
		out.failed++
	}
}
