package telemetry

// Sampler is the time-series half of the live observability plane: a
// periodic wall-clock snapshot of run health (tracked variables plus
// goroutine count, heap, and GC pauses) appended as one JSON object
// per line. Where the wire spans answer "what happened, in what order"
// after a run, the sampler answers "what is happening right now"
// during a live one — a 10^6-client loadgen run stops being
// a black box between start and exit.
//
// Wall-clock use is deliberate and confined here (see the clock-guard
// allowlist): observability is measurement of the real world, not
// protocol behavior, so virtual clocks would be a lie.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"
)

// SampleVar is one tracked variable: a name, a reader, and whether the
// sampler should also emit its per-second rate (for monotonic
// counters: requests, errors, bytes).
type SampleVar struct {
	Name string
	Read func() float64
	Rate bool
}

// CounterVar tracks a registry counter with a derived per-second rate.
func CounterVar(name string, c *Counter) SampleVar {
	return SampleVar{Name: name, Read: func() float64 { return float64(c.Value()) }, Rate: true}
}

// GaugeVar tracks a registry gauge as a raw level.
func GaugeVar(name string, g *Gauge) SampleVar {
	return SampleVar{Name: name, Read: g.Value}
}

// Sampler appends periodic snapshots to a writer. Construct with
// NewSampler, call Start, and Stop before reading the output. A nil
// *Sampler is valid and disabled.
type Sampler struct {
	interval time.Duration
	vars     []SampleVar

	mu     sync.Mutex
	w      *bufio.Writer
	start  time.Time
	lastAt time.Time
	last   []float64 // previous raw value per var, for rates

	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewSampler creates a sampler writing one JSON line per interval to
// w. It does not start sampling until Start. A zero or negative
// interval defaults to one second.
func NewSampler(w io.Writer, interval time.Duration, vars ...SampleVar) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	now := time.Now()
	return &Sampler{
		interval: interval,
		vars:     vars,
		w:        bufio.NewWriter(w),
		start:    now,
		lastAt:   now,
		last:     make([]float64, len(vars)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the sampling goroutine. Safe on nil.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				_ = s.Sample()
			}
		}
	}()
}

// Stop halts sampling, takes one final snapshot, and flushes. Safe on
// nil; safe to call once after Start (or without Start, in which case
// it just flushes the final snapshot).
func (s *Sampler) Stop() error {
	if s == nil {
		return nil
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done // wait for the ticker goroutine to quit
	}
	if err := s.Sample(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Sample takes one snapshot immediately. Exported so tests (and final
// flushes) can sample deterministically without waiting on the ticker.
func (s *Sampler) Sample() error {
	if s == nil {
		return nil
	}
	now := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	s.mu.Lock()
	defer s.mu.Unlock()
	elapsed := now.Sub(s.lastAt).Seconds()
	var b strings.Builder
	fmt.Fprintf(&b, `{"t_unix_ms":%d,"uptime_s":%s,"goroutines":%d`,
		now.UnixMilli(), formatValue(now.Sub(s.start).Seconds()), runtime.NumGoroutine())
	fmt.Fprintf(&b, `,"heap_alloc_bytes":%d,"heap_objects":%d,"num_gc":%d,"gc_pause_total_ns":%d`,
		ms.HeapAlloc, ms.HeapObjects, ms.NumGC, ms.PauseTotalNs)
	for i, v := range s.vars {
		cur := v.Read()
		fmt.Fprintf(&b, `,%s:%s`, jsonString(v.Name), formatValue(cur))
		if v.Rate {
			rate := 0.0
			if elapsed > 0 && cur >= s.last[i] {
				rate = (cur - s.last[i]) / elapsed
			}
			fmt.Fprintf(&b, `,%s:%s`, jsonString(v.Name+"_per_s"), formatValue(rate))
		}
		s.last[i] = cur
	}
	b.WriteString("}\n")
	s.lastAt = now
	_, err := s.w.WriteString(b.String())
	return err
}

func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // strings always marshal
		panic(err)
	}
	return b
}

// SampleRecord is one decoded sampler line: every field is numeric.
type SampleRecord map[string]float64

// ParseSamples decodes and validates sampler JSONL: every line must be
// a flat JSON object of numbers carrying at least the built-in run
// health fields, with time monotonically non-decreasing.
func ParseSamples(r io.Reader) ([]SampleRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var out []SampleRecord
	line := 0
	lastT := 0.0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var rec SampleRecord
		if err := json.Unmarshal([]byte(raw), &rec); err != nil {
			return nil, fmt.Errorf("telemetry: sample line %d: %w", line, err)
		}
		for _, key := range []string{"t_unix_ms", "uptime_s", "goroutines", "heap_alloc_bytes"} {
			if _, ok := rec[key]; !ok {
				return nil, fmt.Errorf("telemetry: sample line %d: missing %q", line, key)
			}
		}
		t := rec["t_unix_ms"]
		if t < lastT {
			return nil, fmt.Errorf("telemetry: sample line %d: time went backwards", line)
		}
		lastT = t
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
