package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilEverything exercises every entry point on nil receivers: the
// disabled path must be completely inert, never panic, and return zero
// values.
func TestNilEverything(t *testing.T) {
	t.Parallel()
	var tr *Tracer
	tr.SetClock(func() time.Duration { return time.Second })
	if sp := tr.Start("x"); sp != nil {
		t.Errorf("nil tracer Start = %v, want nil", sp)
	}
	if sp := tr.StartAt(nil, "x", 0); sp != nil {
		t.Errorf("nil tracer StartAt = %v, want nil", sp)
	}
	if cur := tr.Current(); cur != nil {
		t.Errorf("nil tracer Current = %v, want nil", cur)
	}
	if n := tr.Len(); n != 0 {
		t.Errorf("nil tracer Len = %d, want 0", n)
	}
	if name := tr.Name(); name != "" {
		t.Errorf("nil tracer Name = %q, want empty", name)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil tracer WriteJSONL: err=%v len=%d", err, buf.Len())
	}

	var sp *Span
	sp.End()
	sp.EndAt(time.Second)
	sp.Annotate(A("k", "v"))

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
	tel.SetClock(func() time.Duration { return 0 })
	if sp := tel.Start("x"); sp != nil {
		t.Errorf("nil telemetry Start = %v, want nil", sp)
	}
	if sp := tel.StartAt(nil, "x", 0); sp != nil {
		t.Errorf("nil telemetry StartAt = %v, want nil", sp)
	}
	if cur := tel.Current(); cur != nil {
		t.Errorf("nil telemetry Current = %v, want nil", cur)
	}
	tel.Count("c", "h", 1)
	tel.Observe("h", "h", LatencyBuckets, 0.5)
	if tr := tel.Tracer(); tr != nil {
		t.Errorf("nil telemetry Tracer = %v, want nil", tr)
	}
	if m := tel.Metrics(); m != nil {
		t.Errorf("nil telemetry Metrics = %v, want nil", m)
	}
	if b := tel.BaseLabels(); b != nil {
		t.Errorf("nil telemetry BaseLabels = %v, want nil", b)
	}
}

// TestNewDisabledReturnsNil: both sinks off means the whole handle is
// nil, so instrumented code pays only a pointer check.
func TestNewDisabledReturnsNil(t *testing.T) {
	t.Parallel()
	if tel := New("E0", false, nil); tel != nil {
		t.Fatalf("New with both sinks off = %v, want nil", tel)
	}
	if tel := New("E0", true, nil); tel == nil || tel.Tracer() == nil || tel.Metrics() != nil {
		t.Fatalf("trace-only handle wrong: %+v", tel)
	}
	if tel := New("E0", false, NewMetrics()); tel == nil || tel.Tracer() != nil || tel.Metrics() == nil {
		t.Fatalf("metrics-only handle wrong: %+v", tel)
	}
}

// TestSpanNesting checks the synchronous stack model: Start parents on
// the innermost open span and End pops it.
func TestSpanNesting(t *testing.T) {
	t.Parallel()
	tr := NewTracer("T")
	root := tr.Start("root")
	child := tr.Start("child")
	if child.Parent != root.ID {
		t.Errorf("child parent = %d, want %d", child.Parent, root.ID)
	}
	if cur := tr.Current(); cur != child {
		t.Errorf("Current = %v, want child", cur)
	}
	grand := tr.Start("grand")
	if grand.Parent != child.ID {
		t.Errorf("grand parent = %d, want %d", grand.Parent, child.ID)
	}
	grand.End()
	child.End()
	if cur := tr.Current(); cur != root {
		t.Errorf("Current after pops = %v, want root", cur)
	}
	sibling := tr.Start("sibling")
	if sibling.Parent != root.ID {
		t.Errorf("sibling parent = %d, want %d", sibling.Parent, root.ID)
	}
	sibling.End()
	root.End()
	if cur := tr.Current(); cur != nil {
		t.Errorf("Current after all ended = %v, want nil", cur)
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
}

// TestStartAtExplicitParent checks the simulator's usage: a span opened
// with a parent captured earlier (possibly already ended) still nests
// under it, and a nil parent yields a root span.
func TestStartAtExplicitParent(t *testing.T) {
	t.Parallel()
	tr := NewTracer("T")
	send := tr.Start("send")
	send.End()
	hop := tr.StartAt(send, "hop", 5*time.Millisecond)
	if hop.Parent != send.ID {
		t.Errorf("hop parent = %d, want %d", hop.Parent, send.ID)
	}
	if hop.Start != 5*time.Millisecond {
		t.Errorf("hop start = %v, want 5ms", hop.Start)
	}
	hop.EndAt(7 * time.Millisecond)
	root := tr.StartAt(nil, "root", 0)
	if root.Parent != 0 {
		t.Errorf("nil-parent span parent = %d, want 0", root.Parent)
	}
	root.End()
}

// TestEndSemantics: EndAt clamps end >= start, and a second End is a
// no-op.
func TestEndSemantics(t *testing.T) {
	t.Parallel()
	tr := NewTracer("T")
	sp := tr.StartAt(nil, "x", 10*time.Millisecond)
	sp.EndAt(3 * time.Millisecond) // before start: clamp
	if sp.EndTime != 10*time.Millisecond {
		t.Errorf("clamped end = %v, want 10ms", sp.EndTime)
	}
	sp.EndAt(20 * time.Millisecond) // already ended: ignored
	if sp.EndTime != 10*time.Millisecond {
		t.Errorf("double End changed end to %v", sp.EndTime)
	}
}

// TestClock: spans are stamped from the bound clock, zero before any
// clock is set.
func TestClock(t *testing.T) {
	t.Parallel()
	tr := NewTracer("T")
	early := tr.Start("early")
	early.End()
	if early.Start != 0 || early.EndTime != 0 {
		t.Errorf("pre-clock span times = %v..%v, want 0..0", early.Start, early.EndTime)
	}
	now := 5 * time.Millisecond
	tr.SetClock(func() time.Duration { return now })
	sp := tr.Start("timed")
	now = 9 * time.Millisecond
	sp.End()
	if sp.Start != 5*time.Millisecond || sp.EndTime != 9*time.Millisecond {
		t.Errorf("span times = %v..%v, want 5ms..9ms", sp.Start, sp.EndTime)
	}
}

func buildTrace(t *testing.T) *Tracer {
	t.Helper()
	tr := NewTracer("E2")
	now := time.Duration(0)
	tr.SetClock(func() time.Duration { return now })
	root := tr.Start("experiment", A("id", "E2"))
	phase := tr.Start("phase:forward")
	now = 2 * time.Millisecond
	hop := tr.StartAt(phase, "simnet.deliver", time.Millisecond,
		A("src", "alice"), A("dst", `mix"1`), A("bytes", strconv.Itoa(146)))
	hop.Annotate(A("late", "value\nwith newline"))
	hop.End()
	phase.End()
	open := tr.Start("never-ended")
	_ = open
	root.EndAt(4 * time.Millisecond)
	return tr
}

// TestWriteJSONLDeterministic: the same span sequence renders to the
// same bytes, and the output survives a strict parse that agrees with
// the recorded spans (including an unended span emitted with end ==
// start).
func TestWriteJSONLDeterministic(t *testing.T) {
	t.Parallel()
	var a, b bytes.Buffer
	if err := buildTrace(t).WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildTrace(t).WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identical traces rendered differently:\n%s\n---\n%s", a.String(), b.String())
	}
	recs, err := ParseJSONL(&a)
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("parsed %d spans, want 4", len(recs))
	}
	if recs[0].Name != "experiment" || recs[0].Parent != 0 || recs[0].EndNS != int64(4*time.Millisecond) {
		t.Errorf("root record wrong: %+v", recs[0])
	}
	if recs[2].Name != "simnet.deliver" || recs[2].Parent != recs[1].Span {
		t.Errorf("hop record wrong: %+v", recs[2])
	}
	if recs[2].Attrs["dst"] != `mix"1` || recs[2].Attrs["late"] != "value\nwith newline" {
		t.Errorf("attrs did not survive JSON round-trip: %v", recs[2].Attrs)
	}
	if recs[3].Name != "never-ended" || recs[3].EndNS != recs[3].StartNS {
		t.Errorf("unended span not emitted with end == start: %+v", recs[3])
	}
}

// TestParseJSONLRejects enumerates the validation rules.
func TestParseJSONLRejects(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"unknown field":    `{"trace":"T","span":1,"parent":0,"name":"x","start_ns":0,"end_ns":0,"bogus":1}`,
		"missing name":     `{"trace":"T","span":1,"parent":0,"name":"","start_ns":0,"end_ns":0}`,
		"missing trace":    `{"trace":"","span":1,"parent":0,"name":"x","start_ns":0,"end_ns":0}`,
		"span id zero":     `{"trace":"T","span":0,"parent":0,"name":"x","start_ns":0,"end_ns":0}`,
		"end before start": `{"trace":"T","span":1,"parent":0,"name":"x","start_ns":5,"end_ns":4}`,
		"orphan parent":    `{"trace":"T","span":1,"parent":9,"name":"x","start_ns":0,"end_ns":0}`,
		"duplicate id": `{"trace":"T","span":1,"parent":0,"name":"x","start_ns":0,"end_ns":0}
{"trace":"T","span":1,"parent":0,"name":"y","start_ns":0,"end_ns":0}`,
		"not json":       `garbage`,
		"trailing bytes": `{"trace":"T","span":1,"parent":0,"name":"x","start_ns":0,"end_ns":0}garbage`,
		"trailing value": `{"trace":"T","span":1,"parent":0,"name":"x","start_ns":0,"end_ns":0} {"junk":1}`,
	}
	for name, input := range cases {
		if _, err := ParseJSONL(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ParseJSONL accepted invalid input", name)
		}
	}
	// Span ids are per trace: the same id in two traces is fine.
	ok := `{"trace":"A","span":1,"parent":0,"name":"x","start_ns":0,"end_ns":0}
{"trace":"B","span":1,"parent":0,"name":"x","start_ns":0,"end_ns":0}`
	if _, err := ParseJSONL(strings.NewReader(ok)); err != nil {
		t.Errorf("per-trace ids rejected: %v", err)
	}
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
	tel := New("E2", false, m, A("experiment", "E2"))
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

// TestConcurrentUpdates hammers a shared registry and a tracer from
// many goroutines; meaningful under -race.
func TestConcurrentUpdates(t *testing.T) {
	t.Parallel()
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := NewTracer(strconv.Itoa(g)) // tracers are per-goroutine, like per-experiment
			for i := 0; i < 200; i++ {
				sp := tr.Start("op", A("i", strconv.Itoa(i)))
				m.Counter("ops_total", "Ops.", A("g", strconv.Itoa(g))).Add(1)
				m.Histogram("op_size", "Sizes.", SizeBuckets).Observe(float64(i))
				sp.End()
			}
		}(g)
	}
	wg.Wait()
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

var sinkSpan *Span

func BenchmarkBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var tel *Telemetry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tel.Start("simnet.deliver")
		sp.End()
		sinkSpan = sp
	}
}

func BenchmarkDisabledStartAt(b *testing.B) {
	var tel *Telemetry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tel.StartAt(nil, "simnet.deliver", 0)
		sp.EndAt(0)
		sinkSpan = sp
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

func BenchmarkEnabledSpan(b *testing.B) {
	tel := New("bench", true, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tel.Start("simnet.deliver")
		sp.End()
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
