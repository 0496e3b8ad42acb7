package wiretrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"decoupling/internal/core"
)

// fakeClock returns a monotonically increasing clock stepping 1ms per
// call, so spans get distinct, ordered timestamps.
func fakeClock() func() time.Duration {
	var t time.Duration
	return func() time.Duration {
		t += time.Millisecond
		return t
	}
}

func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	if p.Enabled() {
		t.Fatal("nil plane reports enabled")
	}
	if p.Mode() != ModeOff {
		t.Fatalf("nil plane mode = %v", p.Mode())
	}
	p.SetClock(func() time.Duration { return 1 })
	p.Handoff([]byte("x"), Context{Trace: TraceID{1}})
	if !p.TakeHandoff([]byte("x")).IsZero() {
		t.Fatal("nil plane returned a handoff context")
	}
	sp := p.Hop("v", "op", Context{}, "", "")
	if sp != nil {
		t.Fatal("nil plane opened a span")
	}
	sp.Observe(core.Identity, "x")
	if !sp.Context().IsZero() || !sp.Forward().IsZero() {
		t.Fatal("nil span produced a context")
	}
	sp.End()
	if New(ModeOff, 1) != nil {
		t.Fatal("New(ModeOff) is not nil")
	}
}

func TestRotateForwardMintsFreshTrace(t *testing.T) {
	p := New(ModeRotate, 1)
	root := p.Root("client", "send", "c", "m")
	in := root.Context()
	hop := p.Hop("Mix 1", "hop", in, "c", "m2")
	out := hop.Forward()
	if out.Trace == in.Trace {
		t.Fatal("rotate-mode Forward kept the inbound trace ID")
	}
	if out.Trace.IsZero() {
		t.Fatal("rotate-mode Forward minted a zero trace")
	}
	if out.Span != hop.s.ID {
		t.Fatal("Forward parent is not the rotating span")
	}
	// Idempotent: the rotation is minted once.
	if again := hop.Forward(); again != out {
		t.Fatalf("Forward not idempotent: %+v then %+v", out, again)
	}
	// The linkage lives only in the local span.
	if hop.s.RotatedTo != out.Trace {
		t.Fatal("rotation not recorded in the local span")
	}
	if root.s.RotatedTo != (TraceID{}) {
		t.Fatal("rotation leaked into the upstream span")
	}
}

func TestNaiveForwardKeepsGlobalTrace(t *testing.T) {
	p := New(ModeNaive, 1)
	root := p.Root("client", "send", "c", "m")
	hop := p.Hop("Mix 1", "hop", root.Context(), "c", "m2")
	if hop.Forward() != hop.Context() {
		t.Fatal("naive-mode Forward differs from Context")
	}
	if hop.Forward().Trace != root.Context().Trace {
		t.Fatal("naive-mode trace ID changed across the hop")
	}
	if hop.s.RotatedTo != (TraceID{}) {
		t.Fatal("naive mode recorded a rotation")
	}
}

func TestHopSampling(t *testing.T) {
	p := New(ModeRotate, 2)
	p.SetHopSampling(true)
	if p.Hop("Mix 1", "hop", Context{}, "", "") != nil {
		t.Fatal("sampled plane opened a span for an uncontexted hop")
	}
	root := p.Root("client", "send", "", "")
	if root == nil {
		t.Fatal("sampled plane refused a root span")
	}
	if p.Hop("Mix 1", "hop", root.Context(), "", "") == nil {
		t.Fatal("sampled plane refused a propagated hop")
	}
	p.SetHopSampling(false)
	if p.Hop("Mix 1", "hop", Context{}, "", "") == nil {
		t.Fatal("unsampled plane refused an uncontexted hop")
	}
}

func TestHandoffFIFO(t *testing.T) {
	p := New(ModeRotate, 3)
	payload := []byte("same bytes")
	a := Context{Trace: TraceID{1}, Span: SpanID{1}}
	b := Context{Trace: TraceID{2}, Span: SpanID{2}}
	p.Handoff(payload, a)
	p.Handoff(payload, b)
	if got := p.TakeHandoff(payload); got != a {
		t.Fatalf("first take = %+v, want %+v", got, a)
	}
	if got := p.TakeHandoff(payload); got != b {
		t.Fatalf("second take = %+v, want %+v", got, b)
	}
	if !p.TakeHandoff(payload).IsZero() {
		t.Fatal("drained queue returned a context")
	}
	// Zero contexts are never deposited.
	p.Handoff(payload, Context{})
	if !p.TakeHandoff(payload).IsZero() {
		t.Fatal("zero context was deposited")
	}
}

func TestContextHeaderRoundTrip(t *testing.T) {
	c := Context{Trace: TraceID{0xAB, 1, 2}, Span: SpanID{0xCD, 3}}
	got, err := ParseHeader(c.MarshalHeader())
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if got != c {
		t.Fatalf("round trip mismatch: %+v != %+v", got, c)
	}
	for _, bad := range []string{"", "zz", strings.Repeat("ab", EncodedLen-1), strings.Repeat("ab", EncodedLen+1), "not hex at all"} {
		if _, err := ParseHeader(bad); err == nil {
			t.Errorf("ParseHeader(%q) accepted", bad)
		}
	}
}

// tracedChain drives a three-vantage request through the plane:
// client root → Mix 1 (rotates) → Receiver.
func tracedChain(p *Plane) {
	root := p.Root(ClientVantage, "send", "client", "Mix 1")
	defer root.End()
	hop := p.Hop("Mix 1", "hop", root.Context(), "client", "Receiver")
	hop.Observe(core.Identity, "client")
	out := hop.Forward()
	hop.End()
	leaf := p.Hop("Receiver", "deliver", out, "Mix 1", "")
	leaf.Observe(core.Data, "payload")
	leaf.End()
}

func TestJSONLRoundTripAndCheck(t *testing.T) {
	p := New(ModeRotate, 5)
	p.SetClock(fakeClock())
	tracedChain(p)
	tracedChain(p)

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, p); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	recs, err := ParseJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	if len(recs) != 6 {
		t.Fatalf("parsed %d spans, want 6", len(recs))
	}
	if err := Check(recs); err != nil {
		t.Fatalf("Check: %v", err)
	}
	st := Summarize(recs)
	if st.Spans != 6 || st.Roots != 2 || st.Rotations != 2 || st.Mode != "rotate" {
		t.Fatalf("summary %+v", st)
	}
	// 2 requests × (client trace + rotated trace) = 4 distinct traces.
	if st.Traces != 4 {
		t.Fatalf("summary counted %d traces, want 4", st.Traces)
	}
}

func TestParseJSONLStrictness(t *testing.T) {
	p := New(ModeRotate, 5)
	tracedChain(p)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, p); err != nil {
		t.Fatal(err)
	}
	good := strings.TrimRight(buf.String(), "\n")
	lines := strings.Split(good, "\n")

	mutate := func(find, replace string) string {
		return strings.Replace(good, find, replace, 1)
	}
	cases := map[string]string{
		"empty line":     lines[0] + "\n\n" + lines[1],
		"unknown field":  mutate(`"v":`, `"extra":1,"v":`),
		"bad schema":     mutate(SchemaV1, "wirespan/v0"),
		"bad mode":       mutate(`"mode":"rotate"`, `"mode":"loud"`),
		"mixed modes":    lines[0] + "\n" + strings.Replace(lines[1], `"mode":"rotate"`, `"mode":"naive"`, 1),
		"bad trace hex":  mutate(`"trace":"`, `"trace":"ZZ`),
		"trailing junk":  lines[0] + " {}\n" + lines[1],
		"trailing brace": lines[0] + "}\n" + lines[1],
		"not json":       "span data\n",
		"missing fields": `{"v":"` + SchemaV1 + `","mode":"rotate","trace":"` + strings.Repeat("a", 32) + `","span":"` + strings.Repeat("b", 16) + `","start_ns":0,"end_ns":0}`,
	}
	for name, in := range cases {
		if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseJSONL(strings.NewReader(good + "\n")); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
}

func TestCheckInvariants(t *testing.T) {
	base := func() []Record {
		p := New(ModeRotate, 5)
		p.SetClock(fakeClock())
		tracedChain(p)
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, p); err != nil {
			t.Fatal(err)
		}
		recs, err := ParseJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	recs := base()
	if err := Check(recs); err != nil {
		t.Fatalf("valid artifact failed Check: %v", err)
	}

	// Duplicate span ID.
	dup := base()
	dup[1].Span = dup[0].Span
	if err := Check(dup); err == nil || !strings.Contains(err.Error(), "duplicate span") {
		t.Errorf("duplicate span id: %v", err)
	}

	// Unresolved parent.
	orphan := base()
	for i := range orphan {
		if orphan[i].Parent != "" {
			orphan[i].Parent = strings.Repeat("f", 16)
			break
		}
	}
	if err := Check(orphan); err == nil || !strings.Contains(err.Error(), "unresolved parent") {
		t.Errorf("unresolved parent: %v", err)
	}

	// A trace ID shared by three vantages violates rotate mode.
	wide := base()
	shared := wide[0].Trace
	for i := range wide {
		wide[i].Trace = shared
		wide[i].RotatedTo = ""
	}
	if err := Check(wide); err == nil || !strings.Contains(err.Error(), "vantages") {
		t.Errorf("three-vantage trace: %v", err)
	}

	// Naive artifacts must not record rotations.
	p := New(ModeNaive, 5)
	tracedChain(p)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, p); err != nil {
		t.Fatal(err)
	}
	naive, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(naive); err != nil {
		t.Fatalf("naive artifact failed Check: %v", err)
	}
	naive[0].RotatedTo = strings.Repeat("a", 32)
	if err := Check(naive); err == nil || !strings.Contains(err.Error(), "rotates in") {
		t.Errorf("rotation in naive mode: %v", err)
	}
}

func TestCriticalPath(t *testing.T) {
	p := New(ModeRotate, 9)
	// Hand-placed timestamps: client 0–1ms, hop 2–3ms, deliver 9–10ms.
	// The dominant leg is the 6ms Mix 1 → Receiver gap (mix batching).
	times := []time.Duration{0, 2 * time.Millisecond, 9 * time.Millisecond,
		10 * time.Millisecond, 3 * time.Millisecond, 1 * time.Millisecond}
	i := 0
	p.SetClock(func() time.Duration { t := times[i%len(times)]; i++; return t })

	root := p.Hop(ClientVantage, "send", Context{}, "client", "Mix 1")
	hop := p.Hop("Mix 1", "hop", root.Context(), "client", "Receiver")
	leaf := p.Hop("Receiver", "deliver", hop.Forward(), "Mix 1", "")
	leaf.End()
	hop.End()
	root.End()

	paths := Paths(p.Stores())
	if len(paths) != 1 {
		t.Fatalf("stitched %d paths, want 1", len(paths))
	}
	pt := paths[0]
	if pt.Hops != 3 {
		t.Errorf("chain has %d hops, want 3", pt.Hops)
	}
	if pt.Total != 10*time.Millisecond {
		t.Errorf("total = %v, want 10ms", pt.Total)
	}
	if pt.Dominant.Label != "Mix 1 → Receiver" || pt.Dominant.Dur != 6*time.Millisecond {
		t.Errorf("dominant = %+v, want Mix 1 → Receiver 6ms", pt.Dominant)
	}
	if pt.Trace != root.s.Trace.String() {
		t.Errorf("path trace %s is not the root's trace", pt.Trace)
	}

	sum := SummarizeCritical(p, 3)
	if sum == nil || sum.Requests != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.DominantCounts["Mix 1 → Receiver"] != 1 {
		t.Errorf("dominant counts %+v", sum.DominantCounts)
	}
	if len(sum.Slowest) != 1 || sum.Slowest[0].Trace != pt.Trace {
		t.Errorf("exemplars %+v", sum.Slowest)
	}
	if !strings.Contains(sum.String(), "Mix 1 → Receiver") {
		t.Errorf("rendered summary misses the dominant leg:\n%s", sum.String())
	}
}

func TestPerfettoShape(t *testing.T) {
	p := New(ModeRotate, 13)
	p.SetClock(fakeClock())
	tracedChain(p)

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, p); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if doc.DisplayUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayUnit)
	}
	threads, complete, rotated := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			threads++
		case "X":
			complete++
			if ev.Args["trace"] == "" || ev.Args["span"] == "" {
				t.Errorf("X event %q missing trace/span args", ev.Name)
			}
			if ev.Args["rotated_to"] != "" {
				rotated++
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	// 3 vantages (client, Mix 1, Receiver) and 3 spans, one rotation.
	if threads != 3 || complete != 3 || rotated != 1 {
		t.Errorf("threads=%d complete=%d rotated=%d, want 3/3/1", threads, complete, rotated)
	}
}
