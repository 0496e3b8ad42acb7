package experiments

import (
	"crypto/rsa"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
	"decoupling/internal/transport"
)

// Runner executes a set of experiments on a bounded worker pool and
// collects results deterministically ordered by the input slice (id
// order for All()).
//
// Experiments are mutually independent by construction: each builds its
// own simnet (virtual clock + seeded RNG), classifier, and ledger, and
// real-loopback systems bind ephemeral 127.0.0.1:0 ports. The runner
// therefore only has to order the collection, not the execution — the
// report produced from its results is byte-identical whether Workers is
// 1 or GOMAXPROCS. An experiment may split its own work into parts
// (Ctx.Each), which the same workers run; parts go before experiments
// still waiting, so one long experiment does not leave workers idle.
//
// Observability preserves that property: each experiment gets its own
// telemetry handle (so its own phase marker) and its own wire-trace
// plane, seeded by input slot, so exporting wire spans in input order
// yields the same ids at any parallelism. The Metrics registry is
// shared, but counter and histogram updates commute and exposition
// output is sorted.
type Runner struct {
	// Workers bounds the goroutines running experiments and their
	// parts. Values < 1 mean runtime.GOMAXPROCS(0).
	Workers int
	// Phases enables the protocol-phase marker: each experiment's
	// ledger stamps every observation with the phase open when it was
	// admitted, which provenance audits report.
	Phases bool
	// Metrics, when non-nil, is the shared registry every experiment
	// reports counters and histograms into.
	Metrics *telemetry.Metrics
	// WireMode, when not ModeOff, gives each experiment its own
	// wire-trace plane (returned in its RunnerResult for export and
	// for the trace-plane audit). Per-experiment planes keep span and
	// trace ids independent of -parallel.
	WireMode wiretrace.Mode
	// Transport, when non-nil, overrides each experiment's transport
	// construction (the Ctx.NewRunner lever): cmd/experiments
	// -transport tcp runs the whole sweep over real loopback sockets.
	Transport func(seed int64) transport.Runner
}

// RunnerResult pairs one experiment's outcome with any execution error.
type RunnerResult struct {
	ID     string
	Result *Result
	Err    error
	// Wire is the experiment's wire-trace plane (nil unless the runner
	// ran with a WireMode).
	Wire *wiretrace.Plane
}

// Run executes every experiment in exps and returns one RunnerResult
// per input, in input order regardless of completion order. It never
// returns early: an experiment error is recorded in its slot while the
// remaining experiments still run.
func (r *Runner) Run(exps []Experiment) []RunnerResult {
	workers := r.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]RunnerResult, len(exps))
	if len(exps) == 0 {
		return out
	}
	// Every experiment is queued from the start, so its queue wait is
	// its pickup time minus this.
	queued := time.Now()
	p := newPool(len(exps))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(func(idx int) { out[idx] = r.runExperiment(exps[idx], idx, p, queued) })
		}()
	}
	wg.Wait()
	return out
}

// runExperiment runs one experiment on the calling worker with its own
// telemetry and wire plane.
func (r *Runner) runExperiment(exp Experiment, idx int, p *pool, queued time.Time) RunnerResult {
	tel := telemetry.New(r.Phases, r.Metrics, telemetry.A("experiment", exp.ID))
	tel.Observe(telemetry.MetricRunnerQueueWait,
		"Wall-clock wait between experiment enqueue and worker pickup.",
		telemetry.WaitBuckets, time.Since(queued).Seconds())
	start := time.Now()
	// Seeded by slot so a plane's ids depend on the input order, never
	// on which worker picked the experiment up.
	wire := wiretrace.New(r.WireMode, int64(1000+idx))
	res, err := runOne(exp, Ctx{Tel: tel, Wire: wire, transport: r.Transport, pool: p})
	if res != nil {
		res.WallElapsed = time.Since(start)
	}
	return RunnerResult{ID: exp.ID, Result: res, Err: err, Wire: wire}
}

// runOne executes a single experiment, converting panics into errors so
// one faulty experiment cannot take down a parallel run.
func runOne(exp Experiment, ctx Ctx) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", exp.ID, p)
		}
	}()
	return exp.Run(ctx)
}

// pool is the one queue a Runner's workers serve: the experiments not
// yet started, in input order, and the parts that running experiments
// queued through Ctx.Each. A free worker takes a queued part before
// the next experiment. mu is never held while experiment or part code
// runs.
type pool struct {
	mu sync.Mutex
	// wake, on mu, is broadcast when parts are queued, when an Each's
	// parts have all finished, and when the last experiment returns.
	wake sync.Cond
	// groups holds the Each calls with parts no goroutine has taken
	// yet, oldest first.
	groups      []*group
	next        int // the next experiment to start
	experiments int
	running     int // experiments started and not yet returned

	// signingKey returns the run's blind-RSA key (Ctx.SigningKey),
	// generated on the first call; keysGenerated counts generations.
	// Both live as long as the pool, one Run.
	signingKey    func() (*rsa.PrivateKey, error)
	keysGenerated int
}

// newPool returns the pool for one Run of the given number of
// experiments.
func newPool(experiments int) *pool {
	p := &pool{experiments: experiments}
	p.wake.L = &p.mu
	p.signingKey = sync.OnceValues(func() (*rsa.PrivateKey, error) {
		p.keysGenerated++
		return blindrsa.GenerateKey(keyBits)
	})
	return p
}

// group is one Each call's parts.
type group struct {
	fn   func(i int) error
	errs []error
	next int // the next part to take
	left int // parts not yet finished
}

// work serves the pool until every experiment has returned; run
// executes the experiment with the given index.
func (p *pool) work(run func(idx int)) {
	p.mu.Lock()
	for {
		switch {
		case len(p.groups) > 0:
			p.runPart(p.groups[0])
		case p.next < p.experiments:
			idx := p.next
			p.next++
			p.running++
			p.mu.Unlock()
			run(idx)
			p.mu.Lock()
			p.running--
			if p.running == 0 && p.next == p.experiments {
				p.wake.Broadcast()
			}
		case p.running == 0:
			p.mu.Unlock()
			return
		default:
			p.wake.Wait()
		}
	}
}

// each queues n parts for the workers, runs the ones no worker has
// taken on the caller, and waits for the rest.
func (p *pool) each(n int, fn func(i int) error) error {
	g := &group{fn: fn, errs: make([]error, n), left: n}
	p.mu.Lock()
	if n > 0 {
		p.groups = append(p.groups, g)
		p.wake.Broadcast()
	}
	for g.left > 0 {
		if g.next < n {
			p.runPart(g)
		} else {
			p.wake.Wait()
		}
	}
	p.mu.Unlock()
	return firstError(g.errs)
}

// runPart takes g's next part and runs it with p.mu released. p.mu
// must be held.
func (p *pool) runPart(g *group) {
	i := g.next
	g.next++
	if g.next == len(g.errs) {
		p.groups = slices.DeleteFunc(p.groups, func(q *group) bool { return q == g })
	}
	p.mu.Unlock()
	err := callPart(g.fn, i)
	p.mu.Lock()
	g.errs[i] = err
	g.left--
	if g.left == 0 {
		p.wake.Broadcast()
	}
}

// callPart runs part i of fn, returning a panic as the part's error.
func callPart(fn func(i int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("part %d: panic: %v", i, p)
		}
	}()
	return fn(i)
}

// firstError returns the lowest-index non-nil error.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunAll is shorthand for running every registered experiment with the
// given parallelism.
func RunAll(workers int) []RunnerResult {
	r := Runner{Workers: workers}
	return r.Run(All())
}
