package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are on the workload's own clock. Parent is 0 for a root; Req groups
// the spans of one request where the benchmark can tell which request a
// call served (a mix's output cannot be tied to its input from outside,
// which is the point of a mix, so mixnet hop spans carry a per-hop id).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so untraced code paths carry
// no wrappers beyond one nil check.
type tracer struct {
	t0    time.Time // the clock's zero
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// now is the tracer's clock.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// id reserves a span id, so a parent can hand its id to children
// before it ends. Zero on a nil tracer.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span.
func (t *tracer) add(id, parent, req uint64, name string, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span name's total self time. A span's self
// time is its share of its own interval minus its children's shares.
// A root's share is its duration; children's shares split every instant
// of the parent's interval evenly among the siblings running at that
// instant, so concurrent children (two experiments on two workers) are
// not counted twice and the self times of a tree add up to its root's
// duration. Children are clipped to their parent's interval.
func selfTimes(spans []span) map[string]time.Duration {
	byID := make(map[uint64]span, len(spans))
	kids := map[uint64][]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			kids[p.ID] = append(kids[p.ID], s)
		}
	}
	share := make(map[uint64]float64, len(spans))
	for _, s := range spans {
		if _, ok := byID[s.Parent]; !ok || s.Parent == 0 {
			share[s.ID] = float64(s.End - s.Start)
		}
	}
	for pid, cs := range kids {
		p := byID[pid]
		for id, v := range siblingShares(cs, p.Start, p.End) {
			share[id] = v
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := share[s.ID]
		for _, c := range kids[s.ID] {
			self -= share[c.ID]
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

// siblingShares sweeps the siblings' start/end events inside [lo, hi]
// and gives each active sibling an equal part of every elementary
// interval.
func siblingShares(cs []span, lo, hi int64) map[uint64]float64 {
	type event struct {
		at    int64
		id    uint64
		start bool
	}
	evs := make([]event, 0, 2*len(cs))
	for _, c := range cs {
		s, e := max(c.Start, lo), min(c.End, hi)
		if e <= s {
			continue
		}
		evs = append(evs, event{s, c.ID, true}, event{e, c.ID, false})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return !evs[i].start && evs[j].start // ends before starts at a tie
	})
	out := make(map[uint64]float64, len(cs))
	active := map[uint64]bool{}
	var last int64
	for _, ev := range evs {
		if n := len(active); n > 0 && ev.at > last {
			part := float64(ev.at-last) / float64(n)
			for id := range active {
				out[id] += part
			}
		}
		last = ev.at
		if ev.start {
			active[ev.id] = true
		} else {
			delete(active, ev.id)
		}
	}
	return out
}

// writeSpans writes spans as JSONL, one object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
