package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidArtifacts(t *testing.T) {
	t.Parallel()
	p := wiretrace.New(wiretrace.ModeRotate, 1)
	root := p.Root("client", "send", "c", "m")
	p.Hop("Mix 1", "hop", root.Context(), "c", "").End()
	root.End()
	var spans bytes.Buffer
	if err := wiretrace.WriteJSONL(&spans, p); err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMetrics()
	m.Counter("x_total", "X.", telemetry.A("experiment", "E2")).Add(3)
	m.Histogram("y_seconds", "Y.", telemetry.LatencyBuckets).Observe(0.01)
	var prom bytes.Buffer
	if err := m.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}

	sp := write(t, "w.jsonl", spans.String())
	mp := write(t, "m.prom", prom.String())
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-spans", sp, "-metrics", mp}); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "2 spans (1 roots, 0 rotations)") {
		t.Errorf("span summary missing: %s", out.String())
	}
	if !strings.Contains(out.String(), "canonical") {
		t.Errorf("metrics summary missing: %s", out.String())
	}
}

// TestInvalidTrace: a span line that breaks the v1 schema fails the
// strict parse, and the error names the field.
func TestInvalidTrace(t *testing.T) {
	t.Parallel()
	sp := write(t, "bad.jsonl", `{"v":"decoupling-wirespan/v1","mode":"rotate","vantage":"Mix 1","name":"hop","trace":"xyz","span":"0000000000000001","start_ns":0,"end_ns":0}`+"\n")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-spans", sp}); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "trace id") {
		t.Errorf("error did not name the violation: %s", errw.String())
	}
}

// TestEmptyArtifacts: an empty -spans or -metrics file means the
// exporter wrote nothing, and must fail like an empty -samples file.
func TestEmptyArtifacts(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ flag, want string }{
		{"spans", "no spans"},
		{"metrics", "no metric families"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			ep := write(t, "empty", "")
			var out, errw bytes.Buffer
			if code := run(&out, &errw, []string{"-" + tc.flag, ep}); code != 1 {
				t.Fatalf("exit %d, want 1 (stdout: %s)", code, out.String())
			}
			if !strings.Contains(errw.String(), tc.want) {
				t.Errorf("error did not explain itself: %s", errw.String())
			}
		})
	}
}

func TestNonCanonicalMetrics(t *testing.T) {
	t.Parallel()
	// Parses fine but has a trailing blank line the canonical writer
	// never emits — so the byte-compare must fail.
	mp := write(t, "m.prom", "# HELP x_total X.\n# TYPE x_total counter\nx_total 1\n\n")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-metrics", mp}); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "not canonical") {
		t.Errorf("unexpected error: %s", errw.String())
	}
}

func TestSamplesValidation(t *testing.T) {
	t.Parallel()
	// A real sampler stream validates and reports its span.
	var buf bytes.Buffer
	s := telemetry.NewSampler(&buf, 0)
	if err := s.Sample(); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	sp := write(t, "s.jsonl", buf.String())
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-samples", sp}); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "2 samples") {
		t.Errorf("samples summary missing: %s", out.String())
	}

	for name, content := range map[string]string{
		"empty":          "",
		"missing fields": `{"t_unix_ms":1}` + "\n",
		"time regressed": `{"t_unix_ms":2,"uptime_s":0,"goroutines":1,"heap_alloc_bytes":1}` + "\n" +
			`{"t_unix_ms":1,"uptime_s":1,"goroutines":1,"heap_alloc_bytes":1}` + "\n",
	} {
		bp := write(t, "bad.jsonl", content)
		out.Reset()
		errw.Reset()
		if code := run(&out, &errw, []string{"-samples", bp}); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	t.Parallel()
	var out, errw bytes.Buffer
	if code := run(&out, &errw, nil); code != 2 {
		t.Errorf("no flags: exit %d, want 2", code)
	}
	if code := run(&out, &errw, []string{"-spans", "does-not-exist.jsonl"}); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if code := run(&out, &errw, []string{"-trace", "t.jsonl"}); code != 2 {
		t.Errorf("-trace: exit %d, want 2 (no such flag)", code)
	}
}

// TestSpansValidation exercises the wire-span artifact checks: a real
// plane's export passes and reports its shape; empty artifacts fail
// unless -allow-empty; broken invariants name the violation.
func TestSpansValidation(t *testing.T) {
	t.Parallel()
	p := wiretrace.New(wiretrace.ModeRotate, 1)
	root := p.Root("client", "send", "c", "m")
	hop := p.Hop("Mix 1", "hop", root.Context(), "c", "r")
	p.Hop("Receiver", "deliver", hop.Forward(), "m", "").End()
	hop.End()
	root.End()
	var buf bytes.Buffer
	if err := wiretrace.WriteJSONL(&buf, p); err != nil {
		t.Fatal(err)
	}

	sp := write(t, "w.jsonl", buf.String())
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-spans", sp}); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "3 spans (1 roots, 1 rotations)") {
		t.Errorf("span summary missing: %s", out.String())
	}

	// Empty artifact: error by default, fine with -allow-empty.
	ep := write(t, "empty.jsonl", "")
	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-spans", ep}); code != 1 {
		t.Fatalf("empty artifact: exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "no spans") {
		t.Errorf("empty-artifact error did not explain itself: %s", errw.String())
	}
	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-spans", ep, "-allow-empty"}); code != 0 {
		t.Fatalf("-allow-empty: exit %d, stderr: %s", code, errw.String())
	}

	// Renaming the root span id orphans its child's parent reference,
	// which must fail the structural check.
	bad := strings.Replace(buf.String(), root.Context().Span.String(), "ffffffffffffffff", 1)
	bp := write(t, "bad.jsonl", bad)
	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-spans", bp}); code != 1 {
		t.Fatalf("broken parent: exit %d, want 1", code)
	}
}
