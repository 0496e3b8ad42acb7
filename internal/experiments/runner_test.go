package experiments

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decoupling/internal/telemetry"
)

// TestRunnerOrdersResults checks that results come back in input order
// even when completion order is scrambled by a worker pool.
func TestRunnerOrdersResults(t *testing.T) {
	t.Parallel()
	const n = 20
	var exps []Experiment
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("X%d", i)
		exps = append(exps, Experiment{ID: id, Run: func(Ctx) (*Result, error) {
			return &Result{ID: id, Pass: true}, nil
		}})
	}
	r := Runner{Workers: 4}
	out := r.Run(exps)
	if len(out) != n {
		t.Fatalf("results = %d, want %d", len(out), n)
	}
	for i, rr := range out {
		want := fmt.Sprintf("X%d", i)
		if rr.ID != want || rr.Result == nil || rr.Result.ID != want {
			t.Errorf("slot %d: got id %s, want %s", i, rr.ID, want)
		}
	}
}

// TestRunnerBoundsWorkers checks the pool never runs more than Workers
// experiment and part bodies at once. An experiment waiting in Each
// counts only through the parts it runs itself.
func TestRunnerBoundsWorkers(t *testing.T) {
	t.Parallel()
	const workers = 3
	var inFlight, peak, parts atomic.Int64
	var mu sync.Mutex
	enter := func() {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		runtime.Gosched()
	}
	leave := func() { inFlight.Add(-1) }
	var exps []Experiment
	for i := 0; i < 12; i++ {
		split := i%3 == 0
		exps = append(exps, Experiment{ID: fmt.Sprintf("X%d", i), Run: func(ctx Ctx) (*Result, error) {
			enter()
			defer leave()
			if split {
				leave()
				err := ctx.Each(5, func(int) error {
					enter()
					defer leave()
					parts.Add(1)
					return nil
				})
				enter()
				if err != nil {
					return nil, err
				}
			}
			return &Result{Pass: true}, nil
		}})
	}
	r := Runner{Workers: workers}
	for _, rr := range r.Run(exps) {
		if rr.Err != nil {
			t.Errorf("%s: %v", rr.ID, rr.Err)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency = %d, want <= %d", p, workers)
	}
	if n := parts.Load(); n != 4*5 {
		t.Errorf("parts run = %d, want 20", n)
	}
}

// goid returns the calling goroutine's id, parsed from its stack
// header ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestRunnerPartsInlineAtOneWorker checks that with one worker an
// experiment's parts run in index order on the experiment's own
// goroutine, and that the experiments still run one after another.
func TestRunnerPartsInlineAtOneWorker(t *testing.T) {
	t.Parallel()
	var active atomic.Int64
	var exps []Experiment
	for i := 0; i < 3; i++ {
		exps = append(exps, Experiment{ID: fmt.Sprintf("X%d", i), Run: func(ctx Ctx) (*Result, error) {
			if n := active.Add(1); n != 1 {
				return nil, fmt.Errorf("%d experiments running at once", n)
			}
			defer active.Add(-1)
			caller := goid()
			var order []int
			err := ctx.Each(4, func(i int) error {
				if g := goid(); g != caller {
					return fmt.Errorf("part %d ran on goroutine %s, experiment on %s", i, g, caller)
				}
				order = append(order, i)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if !slices.Equal(order, []int{0, 1, 2, 3}) {
				return nil, fmt.Errorf("parts ran in order %v", order)
			}
			return &Result{Pass: true}, nil
		}})
	}
	r := Runner{Workers: 1}
	for _, rr := range r.Run(exps) {
		if rr.Err != nil {
			t.Errorf("%s: %v", rr.ID, rr.Err)
		}
	}
}

// TestRunnerLoneExperimentSpreadsParts checks that a lone experiment
// gets every worker for its parts: at Workers 2 its two parts must be
// in flight together, each waiting for the other to arrive.
func TestRunnerLoneExperimentSpreadsParts(t *testing.T) {
	t.Parallel()
	var arrived atomic.Int64
	both := make(chan struct{})
	exp := Experiment{ID: "X", Run: func(ctx Ctx) (*Result, error) {
		err := ctx.Each(2, func(i int) error {
			if arrived.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
				return nil
			case <-time.After(time.Minute):
				return fmt.Errorf("part %d: the other part never started", i)
			}
		})
		return &Result{Pass: err == nil}, err
	}}
	r := Runner{Workers: 2}
	if rr := r.Run([]Experiment{exp})[0]; rr.Err != nil {
		t.Error(rr.Err)
	}
}

// TestRunnerPartsBeforeExperiments checks the queue's order: a worker
// that frees up takes a queued part before the next experiment. A's
// part 0 holds one worker until part 1 starts; B holds the other until
// A's parts are queued, and C must not start before part 1.
func TestRunnerPartsBeforeExperiments(t *testing.T) {
	t.Parallel()
	queued, partOne := make(chan struct{}), make(chan struct{})
	exps := []Experiment{
		{ID: "A", Run: func(ctx Ctx) (*Result, error) {
			err := ctx.Each(2, func(i int) error {
				if i == 1 {
					close(partOne)
					return nil
				}
				close(queued)
				select {
				case <-partOne:
					return nil
				case <-time.After(time.Minute):
					return errors.New("part 1 never started")
				}
			})
			return &Result{Pass: err == nil}, err
		}},
		{ID: "B", Run: func(Ctx) (*Result, error) {
			<-queued
			return &Result{Pass: true}, nil
		}},
		{ID: "C", Run: func(Ctx) (*Result, error) {
			select {
			case <-partOne:
				return &Result{Pass: true}, nil
			default:
				return nil, errors.New("C started before A's queued part 1")
			}
		}},
	}
	r := Runner{Workers: 2}
	for _, rr := range r.Run(exps) {
		if rr.Err != nil {
			t.Errorf("%s: %v", rr.ID, rr.Err)
		}
	}
}

// TestRunnerErrorsAndPanicsIsolated checks that one failing or
// panicking experiment, or a panicking part, fills only its own slot,
// and that Each still waits for the experiment's other parts.
func TestRunnerErrorsAndPanicsIsolated(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	exps := []Experiment{
		{ID: "ok", Run: func(Ctx) (*Result, error) { return &Result{ID: "ok", Pass: true}, nil }},
		{ID: "err", Run: func(Ctx) (*Result, error) { return nil, boom }},
		{ID: "panic", Run: func(Ctx) (*Result, error) { panic("kaboom") }},
		{ID: "part-panic", Run: func(ctx Ctx) (*Result, error) {
			// Part 0 holds its goroutine until part 2 has started on
			// another, so Each has a running part to wait for.
			started := make(chan struct{})
			var others atomic.Int64
			err := ctx.Each(4, func(i int) error {
				switch i {
				case 0:
					select {
					case <-started:
					case <-time.After(time.Minute):
						return errors.New("part 2 never started")
					}
				case 1:
					panic("part kaboom")
				case 2:
					close(started)
					time.Sleep(20 * time.Millisecond)
				}
				others.Add(1)
				return nil
			})
			if n := others.Load(); n != 3 {
				return nil, fmt.Errorf("Each returned with %d of 3 other parts done", n)
			}
			return nil, err
		}},
		{ID: "ok2", Run: func(Ctx) (*Result, error) { return &Result{ID: "ok2", Pass: true}, nil }},
	}
	r := Runner{Workers: 2}
	out := r.Run(exps)
	for _, i := range []int{0, 4} {
		if out[i].Err != nil || out[i].Result == nil || !out[i].Result.Pass {
			t.Errorf("%s slot corrupted: %+v", exps[i].ID, out[i])
		}
	}
	if !errors.Is(out[1].Err, boom) {
		t.Errorf("err slot: got %v, want %v", out[1].Err, boom)
	}
	if out[2].Err == nil || out[2].Result != nil {
		t.Errorf("panic slot: got %+v", out[2])
	}
	if err := out[3].Err; err == nil || err.Error() != "part 1: panic: part kaboom" {
		t.Errorf("part-panic slot: got %v, want part 1's panic", err)
	}
}

// TestRunnerEachInlineOutsideRunner checks Each under a zero Ctx: the
// parts run in index order on the caller, every part runs even after
// one fails, and the lowest-index error wins.
func TestRunnerEachInlineOutsideRunner(t *testing.T) {
	t.Parallel()
	caller := goid()
	var order []int
	err := Ctx{}.Each(5, func(i int) error {
		if g := goid(); g != caller {
			t.Errorf("part %d ran on goroutine %s, caller on %s", i, g, caller)
		}
		order = append(order, i)
		switch i {
		case 1:
			panic("inline kaboom")
		case 3:
			return errors.New("part 3 failed")
		}
		return nil
	})
	if err == nil || err.Error() != "part 1: panic: inline kaboom" {
		t.Errorf("Each = %v, want part 1's panic", err)
	}
	if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("parts ran in order %v, want 0..4", order)
	}
}

// TestRunnerQueueWaitCountsWholeQueue checks runner_queue_wait: every
// experiment is queued when Run starts, so at one worker the third of
// three 40 ms experiments waits for both before it, at least 80 ms.
func TestRunnerQueueWaitCountsWholeQueue(t *testing.T) {
	t.Parallel()
	const each = 40 * time.Millisecond
	var exps []Experiment
	for i := 0; i < 3; i++ {
		exps = append(exps, Experiment{ID: fmt.Sprintf("Q%d", i), Run: func(Ctx) (*Result, error) {
			time.Sleep(each)
			return &Result{Pass: true}, nil
		}})
	}
	m := telemetry.NewMetrics()
	r := Runner{Workers: 1, Metrics: m}
	r.Run(exps)
	var b bytes.Buffer
	if err := m.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	prefix := telemetry.MetricRunnerQueueWait + `_sum{experiment="Q2"} `
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			wait, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			if want := (2 * each).Seconds(); wait < want {
				t.Errorf("Q2 queue wait = %.3fs, want >= %.3fs", wait, want)
			}
			return
		}
	}
	t.Fatalf("no %q line in the exposition:\n%s", prefix, b.String())
}

// TestRunnerSharesOneSigningKey checks Ctx.SigningKey: under a Runner
// four experiments that ask at once get one key, generated once; a Run
// in which no experiment asks generates none; a zero Ctx generates a
// fresh key on every call.
func TestRunnerSharesOneSigningKey(t *testing.T) {
	t.Parallel()
	const n = 4
	var arrived atomic.Int64
	all := make(chan struct{})
	keys := make([]*rsa.PrivateKey, n)
	pools := make([]*pool, n)
	var exps []Experiment
	for i := 0; i < n; i++ {
		exps = append(exps, Experiment{ID: fmt.Sprintf("K%d", i), Run: func(ctx Ctx) (*Result, error) {
			pools[i] = ctx.pool
			// No experiment asks before all four are in flight.
			if arrived.Add(1) == n {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(time.Minute):
				return nil, errors.New("the other experiments never started")
			}
			key, err := ctx.SigningKey()
			keys[i] = key
			return &Result{Pass: err == nil}, err
		}})
	}
	for _, rr := range (&Runner{Workers: n}).Run(exps) {
		if rr.Err != nil {
			t.Fatalf("%s: %v", rr.ID, rr.Err)
		}
	}
	if got := pools[0].keysGenerated; got != 1 {
		t.Errorf("run generated %d keys, want 1", got)
	}
	for i := range keys {
		if pools[i] != pools[0] || keys[i] == nil || keys[i] != keys[0] {
			t.Errorf("K%d got key %p from pool %p, K0 got %p from %p", i, keys[i], pools[i], keys[0], pools[0])
		}
	}
	if bits := keys[0].N.BitLen(); bits != keyBits {
		t.Errorf("key is %d bits, want %d", bits, keyBits)
	}

	var idle *pool
	quiet := Experiment{ID: "Q", Run: func(ctx Ctx) (*Result, error) {
		idle = ctx.pool
		return &Result{Pass: true}, nil
	}}
	(&Runner{Workers: 2}).Run([]Experiment{quiet})
	if got := idle.keysGenerated; got != 0 {
		t.Errorf("a run that never asked generated %d keys", got)
	}

	a, errA := Ctx{}.SigningKey()
	b, errB := Ctx{}.SigningKey()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a == b || a.N.Cmp(b.N) == 0 {
		t.Error("a zero Ctx returned the same key twice")
	}
}

// TestRunnerParallelMatchesSequential is the determinism guarantee for
// the report pipeline: rendering parallel results must produce the same
// bytes as the sequential baseline. Uses the cheap model-only
// experiments to keep the double run fast.
func TestRunnerParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	subset := []Experiment{
		{"E8", E8VPN},
		{"E9", E9ECH},
		{"E13", E13TEE},
	}
	render := func(workers int) string {
		r := Runner{Workers: workers}
		var s string
		for _, rr := range r.Run(subset) {
			if rr.Err != nil {
				t.Fatalf("workers=%d: %v", workers, rr.Err)
			}
			s += rr.Result.Render()
		}
		return s
	}
	seq := render(1)
	par := render(3)
	if seq != par {
		t.Errorf("parallel render diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestRunAllParallel runs the real suite wide open — every experiment
// must still reproduce when they all execute concurrently. This is the
// integration half of the race-hardening work; run it under -race.
func TestRunAllParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	for _, rr := range RunAll(0) {
		if rr.Err != nil {
			t.Fatalf("%s: %v", rr.ID, rr.Err)
		}
		if !rr.Result.Pass {
			t.Errorf("%s failed under parallel execution:\n%s", rr.ID, rr.Result.Render())
		}
	}
}
