package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestNilEverything exercises every entry point on nil receivers: the
// disabled path must be completely inert, never panic, and return zero
// values.
func TestNilEverything(t *testing.T) {
	t.Parallel()
	var m *Metrics
	m.Counter("c", "h").Add(1)
	m.Histogram("h", "h", LatencyBuckets).Observe(0.5)
	if got := m.Counter("c", "h").Value(); got != 0 {
		t.Errorf("nil metrics counter value = %d, want 0", got)
	}
	if s := m.CounterSeries("c"); s != nil {
		t.Errorf("nil metrics CounterSeries = %v, want nil", s)
	}
	if s := m.Snapshot(); s != nil {
		t.Errorf("nil metrics Snapshot = %v, want nil", s)
	}

	var tel *Telemetry
	end := tel.Phase("x")
	if p := tel.CurrentPhase(); p != "" {
		t.Errorf("nil telemetry CurrentPhase = %q, want empty", p)
	}
	end()
	end()
	tel.Count("c", "h", 1)
	tel.Observe("h", "h", LatencyBuckets, 0.5)
	if m := tel.Metrics(); m != nil {
		t.Errorf("nil telemetry Metrics = %v, want nil", m)
	}
	if b := tel.BaseLabels(); b != nil {
		t.Errorf("nil telemetry BaseLabels = %v, want nil", b)
	}
}

// TestNewDisabledReturnsNil: both sinks off means the whole handle is
// nil, so instrumented code pays only a pointer check; a metrics-only
// handle records no phases.
func TestNewDisabledReturnsNil(t *testing.T) {
	t.Parallel()
	if tel := New(false, nil); tel != nil {
		t.Fatalf("New with both sinks off = %v, want nil", tel)
	}
	if tel := New(true, nil); tel == nil || tel.Metrics() != nil {
		t.Fatalf("phase-only handle wrong: %+v", tel)
	}
	tel := New(false, NewMetrics())
	if tel == nil || tel.Metrics() == nil {
		t.Fatalf("metrics-only handle wrong: %+v", tel)
	}
	end := tel.Phase("forward")
	if p := tel.CurrentPhase(); p != "" {
		t.Errorf("metrics-only handle recorded phase %q", p)
	}
	end()
}

// currentIs fails the test unless tel's innermost open phase is want.
func currentIs(t *testing.T, tel *Telemetry, want string) {
	t.Helper()
	if got := tel.CurrentPhase(); got != want {
		t.Errorf("CurrentPhase = %q, want %q", got, want)
	}
}

// TestPhaseNesting checks the stack model: Phase pushes, CurrentPhase
// reports the innermost open phase, and closing one returns to the
// phase that encloses it.
func TestPhaseNesting(t *testing.T) {
	t.Parallel()
	tel := New(true, nil)
	currentIs(t, tel, "")
	endForward := tel.Phase("forward")
	currentIs(t, tel, "forward")
	endReply := tel.Phase("reply")
	currentIs(t, tel, "reply")
	endReply()
	currentIs(t, tel, "forward")
	endBatch := tel.Phase("batch")
	currentIs(t, tel, "batch")
	endBatch()
	endForward()
	currentIs(t, tel, "")
}

// TestEndSemantics: closing removes the phase wherever it sits, so
// closing an outer phase first leaves the inner one current; two open
// phases with one name stay distinct; and a second close is a no-op.
func TestEndSemantics(t *testing.T) {
	t.Parallel()
	tel := New(true, nil)
	endOuter := tel.Phase("outer")
	endInner := tel.Phase("inner")
	endOuter()
	currentIs(t, tel, "inner")
	endOuter()
	currentIs(t, tel, "inner")

	endFirst := tel.Phase("same")
	endSecond := tel.Phase("same")
	endSecond()
	currentIs(t, tel, "same")
	endSecond()
	currentIs(t, tel, "same")
	endFirst()
	currentIs(t, tel, "inner")
	endInner()
	currentIs(t, tel, "")
}

// TestCounter checks counter registration, accumulation, and series
// identity across lookups.
func TestCounter(t *testing.T) {
	t.Parallel()
	m := NewMetrics()
	c := m.Counter("requests_total", "Requests.", A("src", "a"))
	c.Add(2)
	// Same (name, labels) in any order resolves to the same series.
	m.Counter("requests_total", "Requests.", A("src", "a")).Add(3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	other := m.Counter("requests_total", "Requests.", A("src", "b"))
	other.Add(1)
	series := m.CounterSeries("requests_total")
	if len(series) != 2 {
		t.Fatalf("series count = %d, want 2", len(series))
	}
	if series[0].Value != 5 || series[0].Label("src") != "a" {
		t.Errorf("series sorted wrong: %+v", series)
	}
	if series[1].Label("missing") != "" {
		t.Errorf("absent label lookup = %q, want empty", series[1].Label("missing"))
	}
}

// TestHistogram checks bucket assignment, count, and sum.
func TestHistogram(t *testing.T) {
	t.Parallel()
	m := NewMetrics()
	h := m.Histogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} { // one per bucket + overflow
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.01"} 1`,
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		`latency_seconds_sum 5.555`,
		`latency_seconds_count 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionRoundTrip is the CI validation contract:
// parse(write(m)) re-renders to exactly the bytes written.
func TestExpositionRoundTrip(t *testing.T) {
	t.Parallel()
	m := NewMetrics()
	m.Counter(MetricSimnetMessages, "Messages delivered.", A("experiment", "E2"), A("src", "alice"), A("dst", "mix1")).Add(12)
	m.Counter(MetricSimnetMessages, "Messages delivered.", A("experiment", "E2"), A("src", "mix1"), A("dst", "mix2")).Add(7)
	m.Counter(MetricSimnetLost, "Messages lost.").Add(1)
	h := m.Histogram(MetricSimnetLatency, "Link latency.", LatencyBuckets, A("experiment", "E10"))
	h.Observe(0.004)
	h.Observe(0.03)
	m.Histogram(MetricMixBatchSize, "Batch sizes.", BatchBuckets).Observe(8)

	var first bytes.Buffer
	if err := m.WriteProm(&first); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ParseExposition rejected our own output: %v\n%s", err, first.String())
	}
	var second bytes.Buffer
	if err := WriteExpFamilies(&second, fams); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("round trip not byte-identical:\n--- written ---\n%s\n--- reparsed ---\n%s",
			first.String(), second.String())
	}
}

// TestLabelEscaping: quotes, backslashes, and newlines in label values
// must survive write → parse.
func TestLabelEscaping(t *testing.T) {
	t.Parallel()
	m := NewMetrics()
	m.Counter("c_total", "C.", A("v", "a\"b\\c\nd")).Add(1)
	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `c_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want+"\n") {
		t.Fatalf("escaped label missing, want %q in:\n%s", want, buf.String())
	}
	if _, err := ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("parser rejected escaped labels: %v", err)
	}
}

// TestParseExpositionRejects enumerates the strict-parser rules.
func TestParseExpositionRejects(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"sample before headers": "x_total 1\n",
		"type without help":     "# TYPE x_total counter\nx_total 1\n",
		"unknown type":          "# HELP x_total X.\n# TYPE x_total untyped\n",
		"stray comment":         "# HELP x_total X.\n# TYPE x_total counter\n# a comment\n",
		"foreign sample":        "# HELP x_total X.\n# TYPE x_total counter\ny_total 1\n",
		"bad value":             "# HELP x_total X.\n# TYPE x_total counter\nx_total one\n",
		"missing value":         "# HELP x_total X.\n# TYPE x_total counter\nx_total\n",
		"bad label name":        "# HELP x_total X.\n# TYPE x_total counter\nx_total{a-b=\"v\"} 1\n",
		"unquoted label":        "# HELP x_total X.\n# TYPE x_total counter\nx_total{a=v} 1\n",
		"bad escape":            "# HELP x_total X.\n# TYPE x_total counter\nx_total{a=\"\\x\"} 1\n",
		"unterminated labels":   "# HELP x_total X.\n# TYPE x_total counter\nx_total{a=\"v\" 1\n",
	}
	for name, input := range cases {
		if _, err := ParseExposition(strings.NewReader(input)); err == nil {
			t.Errorf("%s: parser accepted invalid exposition", name)
		}
	}
}

// TestTelemetryBaseLabels: Count/Observe stamp the handle's base labels
// onto every series.
func TestTelemetryBaseLabels(t *testing.T) {
	t.Parallel()
	m := NewMetrics()
	tel := New(false, m, A("experiment", "E2"))
	tel.Count("c_total", "C.", 3, A("src", "alice"))
	series := m.CounterSeries("c_total")
	if len(series) != 1 || series[0].Label("experiment") != "E2" || series[0].Label("src") != "alice" {
		t.Fatalf("base labels not merged: %+v", series)
	}
	base := tel.BaseLabels()
	if len(base) != 1 || base[0].Key != "experiment" {
		t.Fatalf("BaseLabels = %v", base)
	}
	base[0].Value = "mutated" // must be a copy
	tel.Count("c_total", "C.", 1, A("src", "alice"))
	if got := m.CounterSeries("c_total"); len(got) != 1 {
		t.Fatalf("BaseLabels returned the internal slice; mutation forked the series: %+v", got)
	}
}

// TestConcurrentUpdates hammers a shared registry and a shared phase
// marker from many goroutines; meaningful under -race.
func TestConcurrentUpdates(t *testing.T) {
	t.Parallel()
	m := NewMetrics()
	tel := New(true, m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				end := tel.Phase("op")
				if tel.CurrentPhase() != "op" {
					t.Error("no phase current while one is open")
				}
				m.Counter("ops_total", "Ops.", A("g", strconv.Itoa(g))).Add(1)
				m.Histogram("op_size", "Sizes.", SizeBuckets).Observe(float64(i))
				end()
			}
		}(g)
	}
	wg.Wait()
	currentIs(t, tel, "")
	total := uint64(0)
	for _, sv := range m.CounterSeries("ops_total") {
		total += uint64(sv.Value)
	}
	if total != 8*200 {
		t.Errorf("ops_total = %d, want %d", total, 8*200)
	}
	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("concurrent registry exposition invalid: %v", err)
	}
}

// --- No-op overhead benchmarks ------------------------------------
//
// The ISSUE contract: disabled telemetry must cost within noise of no
// instrumentation at all. BenchmarkBaseline is the empty loop;
// BenchmarkDisabled* run the exact instrumented call shapes on a nil
// handle. Compare ns/op — they should all be ~1ns (a pointer check)
// and allocate nothing.

func BenchmarkBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
	}
}

func BenchmarkDisabledPhase(b *testing.B) {
	var tel *Telemetry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel.Phase("forward")()
	}
}

func BenchmarkDisabledCounter(b *testing.B) {
	var tel *Telemetry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel.Count(MetricSimnetMessages, "Messages.", 1)
	}
}

func BenchmarkDisabledObserve(b *testing.B) {
	var tel *Telemetry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel.Observe(MetricSimnetLatency, "Latency.", LatencyBuckets, 0.001)
	}
}

func BenchmarkDisabledCachedCounter(b *testing.B) {
	var m *Metrics
	c := m.Counter(MetricLedgerObservations, "Observations.")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledPhase(b *testing.B) {
	tel := New(true, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel.Phase("forward")()
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	m := NewMetrics()
	c := m.Counter(MetricSimnetMessages, "Messages.", A("src", "a"), A("dst", "b"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
