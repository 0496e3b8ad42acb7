package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decoupling/internal/explore"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
)

func TestRunSelectedExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"E8"}); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "E8") || !strings.Contains(s, "[PASS]") {
		t.Errorf("output:\n%s", s)
	}
	if !strings.Contains(s, "all 1 experiments reproduce the paper") {
		t.Errorf("missing summary line:\n%s", s)
	}
}

func TestRunUnknownID(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"E99"}); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestParallelOutputByteIdentical is the CLI-level determinism check:
// -parallel N must not change a single byte of the report.
func TestParallelOutputByteIdentical(t *testing.T) {
	render := func(args ...string) string {
		var out, errw bytes.Buffer
		if code := run(&out, &errw, args); code != 0 {
			t.Fatalf("exit = %d, stderr = %s", code, errw.String())
		}
		return out.String()
	}
	seq := render("-parallel", "1", "E8", "E9", "E13")
	par := render("-parallel", "4", "E8", "E9", "E13")
	if seq != par {
		t.Errorf("parallel report diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestBadFlag(t *testing.T) {
	for _, args := range [][]string{{"-nope"}, {"-trace", "t.jsonl"}, {"-faults", "flaky"}} {
		var out, errw bytes.Buffer
		if code := run(&out, &errw, args); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}

// stripValues drops each wire-span line's observed values, as CI does:
// ciphertext digests come from fresh HPKE keys on every run.
func stripValues(spans []byte) string {
	lines := strings.SplitAfter(string(spans), "\n")
	for i, l := range lines {
		if j := strings.Index(l, `,"values":`); j >= 0 {
			lines[i] = l[:j] + "}\n"
		}
	}
	return strings.Join(lines, "")
}

// TestTraceDeterminism is the determinism contract of the wire spans:
// with the observed values stripped, -wirespans output is byte-identical
// across -parallel settings and across repeated runs, it passes the
// strict validator, and the report on stdout does not change a byte
// under tracing. E2's mixnet cascade is the deep chain: its spans must
// stitch through Parent from the sender's root to the receiver.
func TestTraceDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name, parallel string) (spans []byte, stdout string) {
		t.Helper()
		path := filepath.Join(dir, name)
		var out, errw bytes.Buffer
		args := []string{"-parallel", parallel, "-trace-mode", "rotate", "-wirespans", path, "E2", "E4"}
		if code := run(&out, &errw, args); code != 0 {
			t.Fatalf("exit = %d, stderr = %s", code, errw.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw, out.String()
	}
	w1, s1 := runOnce("w1.jsonl", "4")
	w2, s2 := runOnce("w2.jsonl", "1")
	w3, _ := runOnce("w3.jsonl", "4")
	if stripValues(w1) != stripValues(w2) {
		t.Errorf("wire spans differ between -parallel 4 and -parallel 1")
	}
	if stripValues(w1) != stripValues(w3) {
		t.Errorf("wire spans differ between two -parallel 4 runs")
	}
	if s1 != s2 {
		t.Errorf("report changed with parallelism while tracing")
	}
	var plain, errw bytes.Buffer
	if code := run(&plain, &errw, []string{"E2", "E4"}); code != 0 {
		t.Fatalf("untraced run: exit = %d, stderr = %s", code, errw.String())
	}
	if plain.String() != s1 {
		t.Errorf("report changed under tracing")
	}

	recs, err := wiretrace.ParseJSONL(bytes.NewReader(w1))
	if err != nil {
		t.Fatalf("exported spans fail strict parse: %v", err)
	}
	if err := wiretrace.Check(recs); err != nil {
		t.Fatalf("exported spans fail the structural check: %v", err)
	}
	// Depth through Parent, across vantages: sender root → Mix 1 →
	// Mix 2 → Mix 3 → receiver is 5 deep, rotations notwithstanding.
	parent := map[string]string{}
	for _, r := range recs {
		parent[r.Span] = r.Parent
	}
	maxDepth := 0
	for _, r := range recs {
		if !strings.HasPrefix(r.Name, "mixnet.") {
			continue
		}
		d := 1
		for p := r.Parent; p != "" && d <= len(recs); p = parent[p] {
			d++
		}
		maxDepth = max(maxDepth, d)
	}
	if maxDepth < 4 {
		t.Errorf("E2 max span depth = %d, want >= 4 (the mixnet chain must stitch through Parent)", maxDepth)
	}
}

// TestMetricsAndStatsFlags checks that -metrics writes a canonical
// exposition file and -stats prints ledger observation counts.
func TestMetricsAndStatsFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.prom")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-metrics", path, "-stats", "E2"}); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("metrics file fails strict parse: %v", err)
	}
	var rendered bytes.Buffer
	if err := telemetry.WriteExpFamilies(&rendered, fams); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, rendered.Bytes()) {
		t.Errorf("metrics file is not canonical (round-trip differs)")
	}
	if !strings.Contains(string(raw), telemetry.MetricSimnetMessages) {
		t.Errorf("metrics missing simnet counters:\n%s", raw)
	}
	if !strings.Contains(errw.String(), "ledger stats:") {
		t.Errorf("-stats output missing:\n%s", errw.String())
	}
	if !strings.Contains(errw.String(), "slowest experiments") {
		t.Errorf("telemetry summary missing:\n%s", errw.String())
	}
}

// TestListenFlag: -listen binds the observability server for the run
// (scrape-during-run coverage lives with loadgen and the telemetry
// httptest suite; here the wiring and the failure mode are the
// contract).
func TestListenFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-listen", "127.0.0.1:0", "E8"}); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "observability on http://") {
		t.Errorf("stderr does not announce the bound address:\n%s", errw.String())
	}
	if !strings.Contains(out.String(), "all 1 experiments reproduce the paper") {
		t.Errorf("report changed under -listen:\n%s", out.String())
	}

	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-listen", "256.0.0.1:0", "E8"}); code != 2 {
		t.Fatalf("unbindable -listen: exit = %d, want 2", code)
	}
}

// TestAuditDeterminism checks that -audit writes per-experiment
// provenance audits that are byte-identical across -parallel settings
// and across repeated runs (fresh keys, fresh ciphertexts), and that
// the report bytes are unchanged by auditing. E2 and E4 cover the
// simulated mixnet (virtual timestamps) and the two in-process DNS
// reproductions.
func TestAuditDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name, parallel string) (audit []byte, stdout string) {
		t.Helper()
		path := filepath.Join(dir, name)
		var out, errw bytes.Buffer
		args := []string{"-parallel", parallel, "-audit", path, "E2", "E4"}
		if code := run(&out, &errw, args); code != 0 {
			t.Fatalf("exit = %d, stderr = %s", code, errw.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw, out.String()
	}
	a1, s1 := runOnce("a1.jsonl", "4")
	a2, s2 := runOnce("a2.jsonl", "1")
	a3, _ := runOnce("a3.jsonl", "4")
	if !bytes.Equal(a1, a2) {
		t.Errorf("audit bytes differ between -parallel 4 and -parallel 1")
	}
	if !bytes.Equal(a1, a3) {
		t.Errorf("audit bytes differ between two -parallel 4 runs")
	}
	if s1 != s2 {
		t.Errorf("report changed with parallelism while auditing")
	}
	for _, id := range []string{"E2", "E4"} {
		if !strings.Contains(string(a1), `"experiment":"`+id+`"`) {
			t.Errorf("audit file missing experiment %s header", id)
		}
	}
	if !strings.Contains(string(a1), `"type":"obs"`) {
		t.Errorf("audit file has no observation lines:\n%.400s", a1)
	}
}

// TestProfileFlags checks -cpuprofile/-memprofile produce non-empty
// pprof files.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-cpuprofile", cpu, "-memprofile", mem, "E8"}); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile missing: %v", err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestRunMultipleIDs(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"E9", "E13"}); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "E9") || !strings.Contains(s, "E13") {
		t.Errorf("output missing experiments:\n%s", s)
	}
}

// TestExploreFindsPlantedViolation runs a small sweep over the planted
// fail-open probe and one fail-closed probe: the planted violation must
// be found, shrunk to a small replayable trace on disk, and the exit
// code must stay 0 (the planted probe is the negative control, not a
// failure).
func TestExploreFindsPlantedViolation(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{"-explore", "-seeds", "2", "-traces", dir,
		"odoh", "odoh-failopen"})
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "planted fail-open violation found and shrunk") {
		t.Errorf("planted violation not reported:\n%s", s)
	}
	if !strings.Contains(s, "zero invariant violations on fail-closed cases") {
		t.Errorf("fail-closed cases not clean:\n%s", s)
	}
	b, err := os.ReadFile(filepath.Join(dir, "probe-odoh-failopen.trace.json"))
	if err != nil {
		t.Fatalf("minimized trace not written: %v", err)
	}
	tr, err := explore.DecodeTrace(b)
	if err != nil {
		t.Fatalf("trace artifact does not decode: %v", err)
	}
	if e := tr.Events(); e > 5 {
		t.Errorf("minimized trace has %d events, want <= 5", e)
	}
}

// TestExploreSelectionErrors pins the flag-validation and id-selection
// error paths.
func TestExploreSelectionErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-explore", "-seeds", "0"}); code != 2 {
		t.Errorf("-seeds 0: exit = %d, want 2", code)
	}
	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-explore", "bogus-id"}); code != 2 {
		t.Errorf("unknown id: exit = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "bogus-id") {
		t.Errorf("diagnostic should name the id: %s", errw.String())
	}
}

// TestExploreReportByteIdenticalAcrossWorkers: the sweep report must
// not depend on the worker-pool width.
func TestExploreReportByteIdenticalAcrossWorkers(t *testing.T) {
	runWith := func(parallel string) string {
		var out, errw bytes.Buffer
		if code := run(&out, &errw, []string{"-explore", "-seeds", "2", "-parallel", parallel,
			"odns", "odoh-failopen"}); code != 0 {
			t.Fatalf("-parallel %s: exit = %d, stderr = %s", parallel, code, errw.String())
		}
		return out.String()
	}
	base := runWith("1")
	if got := runWith("8"); got != base {
		t.Errorf("report differs between -parallel 1 and 8:\n%s\n---\n%s", base, got)
	}
}
