package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// windows is how many equal slices, by completion order, each timed
// phase is cut into. A latency or throughput metric is the median of
// the per-window values, so one stall from a noisy neighbour moves one
// window, not the metric.
const windows = 5

// op is one completed operation of a timed phase: when it finished,
// relative to the phase start, and how long it took.
type op struct {
	done    time.Duration
	latency time.Duration
}

// phase is one timed stretch of load: its operations in completion
// order plus the process costs measured around it.
type phase struct {
	ops    []op
	cpu    time.Duration // user+sys CPU of the whole process
	allocs uint64
	bytes  uint64
}

// meter brackets a timed phase with process CPU and allocation counters.
type meter struct {
	cpu0 time.Duration
	ms0  runtime.MemStats
}

func startMeter() *meter {
	m := &meter{cpu0: processCPU()}
	runtime.ReadMemStats(&m.ms0)
	return m
}

// stop fills the phase's cost fields from the deltas since startMeter.
func (m *meter) stop(p *phase) {
	p.cpu = processCPU() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocs = ms.Mallocs - m.ms0.Mallocs
	p.bytes = ms.TotalAlloc - m.ms0.TotalAlloc
}

// processCPU is the process's user+sys time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// windowStat is one window's throughput and latency quantiles.
type windowStat struct {
	throughput float64 // ops per second
	p50, p99   float64 // ms
}

// windowStats cuts a phase's completion-ordered ops into equal windows.
// A window's throughput is its op count over the time from the previous
// window's last completion (or the phase start) to its own last one.
func windowStats(ops []op) []windowStat {
	n := windows
	if len(ops) < n {
		n = len(ops)
	}
	out := make([]windowStat, 0, n)
	var prev time.Duration
	for w := 0; w < n; w++ {
		lo, hi := w*len(ops)/n, (w+1)*len(ops)/n
		win := ops[lo:hi]
		lat := make([]float64, len(win))
		for i, o := range win {
			lat[i] = ms(o.latency)
		}
		sort.Float64s(lat)
		end := win[len(win)-1].done
		ws := windowStat{p50: quantile(lat, 0.50), p99: quantile(lat, 0.99)}
		if d := end - prev; d > 0 {
			ws.throughput = float64(len(win)) / d.Seconds()
		}
		out = append(out, ws)
		prev = end
	}
	return out
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median returns the median of values (NaN when empty).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
