package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"decoupling/internal/experiments"
)

// tinyConfig shrinks every size so each workload runs one short round.
func tinyConfig(seed int64, seconds time.Duration) config {
	cfg := defaultConfig(seed, seconds)
	cfg.odohQueries, cfg.odohWarmup, cfg.auditEvery, cfg.auditRepeats = 300, 20, 50, 1
	cfg.mixRate, cfg.mixRound, cfg.mixWarmup, cfg.mixThreshold, cfg.mixTimeout = 400, 250*time.Millisecond, 8, 4, 20*time.Millisecond
	cfg.reproduceWarmups = 1
	cfg.experiments = nil
	for _, e := range experiments.All() {
		if e.ID == "E1" || e.ID == "E4" || e.ID == "E8" {
			cfg.experiments = append(cfg.experiments, e)
		}
	}
	cfg.probeQueries, cfg.probeBatches = 200, 1
	return cfg
}

// declared returns the metric names BENCHMARK.json declares in section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(doc[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload untraced and traced at tiny sizes: every
// check passes, the emitted metric names are exactly the ones
// BENCHMARK.json declares, and no traced self time is negative.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want := declared(t, "end_to_end")
		if traced {
			want = declared(t, "per_layer")
		}
		for _, name := range workloadNames() {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			var report bytes.Buffer
			res, err := runWorkload(name, tinyConfig(1, time.Nanosecond), traced, spans, io.Discard, &report)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", name, traced, res.Correct, res.Attempted, res.Failed, report.String())
			}
			var got []string
			for m := range res.Metrics {
				got = append(got, m)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v emits %v, BENCHMARK.json declares %v", name, traced, got, want)
			}
			if traced {
				checkSpans(t, name, spans)
				if off := res.Metrics["trace.reconcile_err_frac"].Value; off > reconcileLimit {
					t.Errorf("%s: self times sum %.1f%% off the traced mean latency", name, 100*off)
				}
				// Client, HTTP round trip, proxy+target, origin: one span
				// each per timed query, none for the warm-up.
				if per := res.Metrics["trace.spans_per_op"].Value; strings.HasPrefix(name, "odoh-") && per != 4 {
					t.Errorf("%s: %v spans per op, want exactly 4", name, per)
				}
				for m, v := range res.Metrics {
					if !strings.HasPrefix(m, "trace.") && v.Value <= 0 {
						t.Errorf("%s: layer cost %s = %v, want > 0", name, m, v.Value)
					}
				}
			}
		}
	}
}

func checkSpans(t *testing.T, name, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%s: span line %q: %v", name, line, err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans written", name)
	}
	for layer, d := range selfTimes(spans) {
		if d < 0 {
			t.Errorf("%s: layer %s has negative self time %v", name, layer, d)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []span
		want  map[string]time.Duration
	}{
		{"nested", []span{
			{ID: 1, Name: "root", Start: 0, End: 100},
			{ID: 2, Parent: 1, Name: "child", Start: 10, End: 60},
			{ID: 3, Parent: 2, Name: "leaf", Start: 20, End: 30},
		}, map[string]time.Duration{"root": 50, "child": 40, "leaf": 10}},
		{"overlapping siblings share", []span{
			{ID: 1, Name: "root", Start: 0, End: 100},
			{ID: 2, Parent: 1, Name: "a", Start: 0, End: 60},
			{ID: 3, Parent: 1, Name: "b", Start: 40, End: 100},
		}, map[string]time.Duration{"root": 0, "a": 50, "b": 50}},
		{"child clipped to parent", []span{
			{ID: 1, Name: "root", Start: 10, End: 20},
			{ID: 2, Parent: 1, Name: "late", Start: 15, End: 40},
		}, map[string]time.Duration{"root": 5, "late": 5}},
	} {
		got := selfTimes(tc.spans)
		for name, w := range tc.want {
			if got[name] != w {
				t.Errorf("%s: self(%s) = %v, want %v", tc.name, name, got[name], w)
			}
		}
	}
}

// TestWindowedQuantiles holds the median of per-window quantiles to the
// exact quantiles of a stationary sample, and window throughput to the
// generating rate.
func TestWindowedQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, rate = 50_000, 8_000.0
	ops := make([]op, n)
	lat := make([]float64, n)
	var at time.Duration
	for i := range ops {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		d := time.Duration(200_000 * math.Exp(0.5*rng.NormFloat64()))
		ops[i] = op{done: at, latency: d}
		lat[i] = ms(d)
	}
	sort.Float64s(lat)
	var thr, p50, p99 []float64
	for _, w := range windowStats(ops) {
		thr = append(thr, w.throughput)
		p50 = append(p50, w.p50)
		p99 = append(p99, w.p99)
	}
	for _, c := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"p50", median(p50), quantile(lat, 0.5), 0.02},
		{"p99", median(p99), quantile(lat, 0.99), 0.05},
		{"throughput", median(thr), rate, 0.03},
	} {
		if math.Abs(c.got/c.want-1) > c.tol {
			t.Errorf("windowed %s = %.4g, exact %.4g: off by more than %.0f%%", c.name, c.got, c.want, 100*c.tol)
		}
	}
}

// TestPlantedFaultsFail plants a wrong ODoH answer and a dropped mixnet
// message: each must be counted and make the exit status nonzero.
func TestPlantedFaultsFail(t *testing.T) {
	for _, tc := range []struct {
		workload string
		plant    func(*config)
	}{
		{"odoh-closed", func(c *config) { c.plantWrongAnswer = true }},
		{"mixnet-open", func(c *config) { c.plantDrop = true }},
	} {
		newConfig := func(seed int64, _ time.Duration) config {
			cfg := tinyConfig(seed, time.Nanosecond)
			tc.plant(&cfg)
			return cfg
		}
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"-workload", tc.workload, "-seed", "1"}, &stdout, &stderr, newConfig)
		if code == 0 {
			t.Errorf("%s with a planted fault exited 0", tc.workload)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line %q: %v", tc.workload, lines[len(lines)-1], err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: planted fault not counted: %+v", tc.workload, res)
		}
		if !strings.Contains(stderr.String(), "CHECK FAILED") {
			t.Errorf("%s: report names no failed check:\n%s", tc.workload, stderr.String())
		}
	}
}

func TestSeedRequired(t *testing.T) {
	if code := realMain([]string{"-workload", "reproduce"}, io.Discard, io.Discard, tinyConfig); code != 2 {
		t.Errorf("exit %d without -seed, want 2", code)
	}
}
