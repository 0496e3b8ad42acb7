package wiretrace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"decoupling/internal/core"
)

// SchemaV1 is the version tag every span line carries.
const SchemaV1 = "decoupling-wirespan/v1"

// ValueRecord is the JSONL form of an observed value.
type ValueRecord struct {
	Kind  string `json:"kind"`
	Value string `json:"value"`
}

// Record is the JSONL form of one span. Field order is fixed by the
// struct, so rendering is deterministic for a given span sequence.
type Record struct {
	V         string        `json:"v"`
	Mode      string        `json:"mode"`
	Vantage   string        `json:"vantage"`
	Name      string        `json:"name"`
	Trace     string        `json:"trace"`
	Span      string        `json:"span"`
	Parent    string        `json:"parent,omitempty"`
	RotatedTo string        `json:"rotated_to,omitempty"`
	Src       string        `json:"src,omitempty"`
	Dst       string        `json:"dst,omitempty"`
	StartNS   int64         `json:"start_ns"`
	EndNS     int64         `json:"end_ns"`
	Values    []ValueRecord `json:"values,omitempty"`
}

func record(mode Mode, sp *Span) Record {
	r := Record{
		V:         SchemaV1,
		Mode:      mode.String(),
		Vantage:   sp.Vantage,
		Name:      sp.Name,
		Trace:     sp.Trace.String(),
		Span:      sp.ID.String(),
		Parent:    sp.Parent.String(),
		RotatedTo: sp.RotatedTo.String(),
		Src:       sp.Src,
		Dst:       sp.Dst,
		StartNS:   int64(sp.Start),
		EndNS:     int64(sp.End),
	}
	if r.EndNS < r.StartNS {
		// A span cut off mid-handling (error-exit flush) still renders
		// as a valid zero-length interval.
		r.EndNS = r.StartNS
	}
	for _, v := range sp.Values {
		r.Values = append(r.Values, ValueRecord{Kind: v.Kind.String(), Value: v.Value})
	}
	return r
}

// WriteJSONL renders every store's spans as strict JSONL: stores in
// vantage order, spans in admission order, one object per line.
func WriteJSONL(w io.Writer, p *Plane) error {
	if !p.Enabled() {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, st := range p.Stores() {
		for _, sp := range st.Spans() {
			if err := enc.Encode(record(p.Mode(), sp)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ParseJSONL strictly decodes a span JSONL stream: every line must be
// a well-formed record with the v1 schema tag, valid hex IDs, a
// consistent mode, and end >= start. Structural cross-span invariants
// are Check's job.
func ParseJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	var recs []Record
	mode := ""
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			return nil, fmt.Errorf("wiretrace: line %d: empty line", n)
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("wiretrace: line %d: %w", n, err)
		}
		var trailing json.RawMessage
		if err := dec.Decode(&trailing); err != io.EOF {
			return nil, fmt.Errorf("wiretrace: line %d: trailing data after span object", n)
		}
		if rec.V != SchemaV1 {
			return nil, fmt.Errorf("wiretrace: line %d: schema %q, want %q", n, rec.V, SchemaV1)
		}
		if _, err := ParseMode(rec.Mode); err != nil || rec.Mode == "off" || rec.Mode == "" {
			return nil, fmt.Errorf("wiretrace: line %d: bad mode %q", n, rec.Mode)
		}
		if mode == "" {
			mode = rec.Mode
		} else if rec.Mode != mode {
			return nil, fmt.Errorf("wiretrace: line %d: mode %q conflicts with earlier %q", n, rec.Mode, mode)
		}
		if rec.Vantage == "" || rec.Name == "" {
			return nil, fmt.Errorf("wiretrace: line %d: missing vantage or name", n)
		}
		if len(rec.Trace) != 32 || !isHex(rec.Trace) {
			return nil, fmt.Errorf("wiretrace: line %d: bad trace id %q", n, rec.Trace)
		}
		if len(rec.Span) != 16 || !isHex(rec.Span) {
			return nil, fmt.Errorf("wiretrace: line %d: bad span id %q", n, rec.Span)
		}
		if rec.Parent != "" && (len(rec.Parent) != 16 || !isHex(rec.Parent)) {
			return nil, fmt.Errorf("wiretrace: line %d: bad parent id %q", n, rec.Parent)
		}
		if rec.RotatedTo != "" && (len(rec.RotatedTo) != 32 || !isHex(rec.RotatedTo)) {
			return nil, fmt.Errorf("wiretrace: line %d: bad rotated_to id %q", n, rec.RotatedTo)
		}
		if rec.EndNS < rec.StartNS {
			return nil, fmt.Errorf("wiretrace: line %d: span ends (%d) before it starts (%d)", n, rec.EndNS, rec.StartNS)
		}
		for _, v := range rec.Values {
			if v.Kind != core.Identity.String() && v.Kind != core.Data.String() {
				return nil, fmt.Errorf("wiretrace: line %d: bad value kind %q", n, v.Kind)
			}
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// Check validates the cross-span invariants of a parsed artifact:
//
//   - span IDs are unique;
//   - every parent reference resolves within the artifact, and a child
//     never starts before its parent (causality);
//   - a child whose parent lives at the same vantage nests inside the
//     parent's interval (cross-vantage children only start later — the
//     gap is queueing plus the wire);
//   - in rotate mode, every cross-vantage edge either keeps the parent's
//     trace (a non-boundary hop) or continues the parent's recorded
//     rotation, no trace ID is shared by more than two vantages, and at
//     least one rotation exists whenever a request crosses two or more
//     boundaries — the "rotation boundaries present" guarantee;
//   - in naive mode, no span records a rotation.
func Check(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	byID := make(map[string]*Record, len(recs))
	for i := range recs {
		r := &recs[i]
		if prev, dup := byID[r.Span]; dup {
			return fmt.Errorf("wiretrace: duplicate span id %s (vantages %s and %s)", r.Span, prev.Vantage, r.Vantage)
		}
		byID[r.Span] = r
	}
	rotate := recs[0].Mode == ModeRotate.String()
	traceVantages := map[string]map[string]bool{}
	note := func(trace, vantage string) {
		vs, ok := traceVantages[trace]
		if !ok {
			vs = map[string]bool{}
			traceVantages[trace] = vs
		}
		vs[vantage] = true
	}
	rotations, chains := 0, 0
	for i := range recs {
		r := &recs[i]
		note(r.Trace, r.Vantage)
		if r.RotatedTo != "" {
			if !rotate {
				return fmt.Errorf("wiretrace: span %s at %s rotates in %s mode", r.Span, r.Vantage, r.Mode)
			}
			rotations++
			note(r.RotatedTo, r.Vantage)
		}
		if r.Parent == "" {
			continue
		}
		par, ok := byID[r.Parent]
		if !ok {
			return fmt.Errorf("wiretrace: span %s at %s has unresolved parent %s", r.Span, r.Vantage, r.Parent)
		}
		if r.StartNS < par.StartNS {
			return fmt.Errorf("wiretrace: span %s starts before its parent %s", r.Span, r.Parent)
		}
		if r.Vantage == par.Vantage {
			if r.StartNS < par.StartNS || r.EndNS > par.EndNS {
				return fmt.Errorf("wiretrace: span %s does not nest inside same-vantage parent %s", r.Span, r.Parent)
			}
		}
		if par.Vantage != r.Vantage {
			if par.Parent != "" {
				if gp, ok := byID[par.Parent]; ok && gp.Vantage != par.Vantage {
					chains++
				}
			}
			if rotate {
				switch r.Trace {
				case par.Trace, par.RotatedTo:
					// pass-through or the parent's recorded rotation
				default:
					return fmt.Errorf("wiretrace: span %s trace %s matches neither parent %s's trace nor its rotation",
						r.Span, r.Trace, r.Parent)
				}
			}
		}
	}
	if rotate {
		for trace, vs := range traceVantages {
			if len(vs) > 2 {
				names := make([]string, 0, len(vs))
				for v := range vs {
					names = append(names, v)
				}
				return fmt.Errorf("wiretrace: rotate mode but trace %s spans %d vantages (%s) — a trace ID must name one link",
					trace, len(vs), strings.Join(names, ", "))
			}
		}
		if chains > 0 && rotations == 0 {
			return fmt.Errorf("wiretrace: rotate mode with %d multi-boundary chains but no rotation recorded", chains)
		}
	}
	return nil
}

// Stats summarizes an artifact for human output.
type Stats struct {
	Spans     int
	Vantages  int
	Traces    int
	Roots     int
	Rotations int
	Mode      string
	WallSpan  time.Duration // max end - min start
}

// Summarize computes artifact statistics.
func Summarize(recs []Record) Stats {
	st := Stats{Spans: len(recs)}
	if len(recs) == 0 {
		return st
	}
	st.Mode = recs[0].Mode
	vantages := map[string]bool{}
	traces := map[string]bool{}
	minStart, maxEnd := recs[0].StartNS, recs[0].EndNS
	for _, r := range recs {
		vantages[r.Vantage] = true
		traces[r.Trace] = true
		if r.Parent == "" {
			st.Roots++
		}
		if r.RotatedTo != "" {
			st.Rotations++
			traces[r.RotatedTo] = true
		}
		if r.StartNS < minStart {
			minStart = r.StartNS
		}
		if r.EndNS > maxEnd {
			maxEnd = r.EndNS
		}
	}
	st.Vantages = len(vantages)
	st.Traces = len(traces)
	st.WallSpan = time.Duration(maxEnd - minStart)
	return st
}
