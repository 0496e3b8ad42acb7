package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/faults"
	"decoupling/internal/ledger"
	"decoupling/internal/resilience"
	"decoupling/internal/transport"
)

// Scenario is a runnable system reproduction: the paper's model plus
// runners that return the quiesced ledger to audit. One registry
// serves the audit CLI, which offers every scenario with a healthy
// Run, and the schedule explorer (internal/explore), which sweeps
// every scenario through RunFaults so a failing (clients, plan,
// schedule) triple can be delta-debugged down to a minimal
// counterexample. The table experiments build the same stacks, so
// `decouple audit` explains exactly the runs the tables measure.
type Scenario struct {
	ID string
	// Expected returns the paper's model for the scenario.
	Expected func() *core.System
	// FailClosed declares the contract under faults: under ANY fault
	// plan and ANY admissible schedule, observed knowledge must stay
	// within the paper's tuples (faults may erase knowledge, never add
	// it). The explorer treats a violation as a bug. The one
	// non-fail-closed scenario is the planted E16 misconfiguration the
	// explorer exists to find.
	FailClosed bool
	// FaultNodes are the node names fault plans may target with
	// crash/partition/loss clauses: the names RunFaults evaluates.
	FaultNodes []transport.Addr
	// MaxClients is the scenario's client count: the healthy run drives
	// it, the audit CLI runs faults with it, and explorer synthesis
	// shrinks it toward 1.
	MaxClients int
	// Run executes the healthy scenario and returns its ledger. parallel
	// splits client load across that many goroutines where the protocol
	// is concurrency-safe; scenarios driven by the deterministic
	// simulator ignore it. Audit output is byte-identical across
	// parallel values. Run is nil for a scenario that exists only under
	// faults.
	Run func(ctx Ctx, parallel int) (*ledger.Ledger, error)
	// RunFaults drives `clients` clients under plan, with the protocol
	// clients wrapped in the resilience layer, and returns the quiesced
	// ledger. The simulator-driven mixnet applies the plan to a network
	// built through ctx.NewNet, so the explorer's scheduler hook sees
	// every decision point; the HTTP-shaped DNS scenarios evaluate
	// crash/partition/loss windows on a deterministic logical clock
	// (latency spikes are simulator-only). Output is byte-identical for
	// a fixed plan and across parallel values. A run in which a
	// non-empty plan silenced every sender returns its ledger with
	// ErrNothingDelivered.
	RunFaults func(ctx Ctx, parallel, clients int, plan *faults.Plan) (*ledger.Ledger, error)
}

// ErrNothingDelivered reports a fault run in which the plan silenced
// every sender: there is nothing to explain, though the (silent)
// ledger leaks nothing either.
var ErrNothingDelivered = errors.New("mixnet fault scenario: nothing delivered (plan too severe to audit)")

// Scenarios lists every scenario in id order. All are in-process and
// cross-run deterministic under audit rendering (canonical ordering +
// handle aliasing + redaction).
func Scenarios() []Scenario {
	return []Scenario{
		{
			ID:         "mixnet",
			Expected:   func() *core.System { return core.Mixnet(3) },
			FailClosed: true,
			FaultNodes: []transport.Addr{"mix1", "mix2", "mix3"},
			MaxClients: 8,
			Run:        runMixnetScenario,
			RunFaults:  mixnetFaultsRun,
		},
		{
			ID:         "odns",
			Expected:   core.ObliviousDNS,
			FailClosed: true,
			FaultNodes: []transport.Addr{"oblivious"},
			MaxClients: auditDNSClients,
			Run:        runODNSScenario,
			RunFaults:  odnsFaultsRun,
		},
		{
			ID:         "odoh",
			Expected:   core.ObliviousDNS,
			FailClosed: true,
			FaultNodes: []transport.Addr{"proxy"},
			MaxClients: auditDNSClients,
			Run:        runODoHScenario,
			RunFaults: func(ctx Ctx, parallel, clients int, plan *faults.Plan) (*ledger.Ledger, error) {
				return odohFaultsRun(ctx, parallel, clients, plan, false)
			},
		},
		{
			// Deliberately misconfigured: any plan that exhausts a
			// client's oblivious path triggers a direct-resolver
			// fallback, handing the proxy operator plaintext names. The
			// explorer must find that leak and shrink it.
			ID:         "odoh-failopen",
			Expected:   core.ObliviousDNS,
			FaultNodes: []transport.Addr{"proxy"},
			MaxClients: auditDNSClients,
			RunFaults: func(ctx Ctx, parallel, clients int, plan *faults.Plan) (*ledger.Ledger, error) {
				return odohFaultsRun(ctx, parallel, clients, plan, true)
			},
		},
	}
}

// FindScenario returns the scenario with the given id.
func FindScenario(id string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.ID == id {
			return s, true
		}
	}
	return Scenario{}, false
}

// forEachClient fans a loop over `clients` client indices out over
// `parallel` goroutines (at least 1) and returns the first error.
func forEachClient(parallel, clients int, fn func(i int) error) error {
	if parallel < 1 {
		parallel = 1
	}
	var wg sync.WaitGroup
	errs := make(chan error, parallel)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < clients; i += parallel {
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// runODoHScenario drives the §3.2.2 ODoH reproduction: clients
// HPKE-encrypt queries through the proxy to the target, which resolves
// via the origin. This is the same run E4's ODoH half measures.
func runODoHScenario(ctx Ctx, parallel int) (*ledger.Ledger, error) {
	s, err := newODoHStack(ctx.Tel, ctx.Wire, auditDNSClients)
	if err != nil {
		return nil, err
	}
	defer ctx.Tel.Phase("odoh")()
	err = forEachClient(parallel, auditDNSClients, func(i int) error {
		_, err := s.client(i).Query(dnsName(i), dnswire.TypeA, s.proxy.Forward)
		return err
	})
	return s.lg, err
}

// runODNSScenario drives the §3.2.2 ODNS reproduction: clients send
// encrypted-name queries through a recursive resolver to the oblivious
// resolver, which decrypts and resolves via the origin. Same run as
// E4's ODNS half.
func runODNSScenario(ctx Ctx, parallel int) (*ledger.Ledger, error) {
	s, err := newODNSStack(ctx.Tel, ctx.Wire, auditDNSClients)
	if err != nil {
		return nil, err
	}
	recursive := dns.NewResolver("Resolver", []dns.Authority{s.oblivious, s.origin}, s.lg, nil)
	recursive.Wire = ctx.Wire
	defer ctx.Tel.Phase("odns")()
	err = forEachClient(parallel, auditDNSClients, func(i int) error {
		_, err := s.client(i, recursive).Query(dnsName(i), dnswire.TypeA)
		return err
	})
	return s.lg, err
}

// newMixnetScenario builds the scenario cascade (batch threshold 4) on
// net, with a ledger on net's clock whose classifier knows the mixes
// as infrastructure.
func newMixnetScenario(ctx Ctx, net transport.Runner) (*ledger.Ledger, *cascade, error) {
	net.Instrument(ctx.Tel)
	ctx.Wire.SetClock(net.Now)
	lg := ledger.New(ledger.NewClassifier(), net.Now)
	lg.Instrument(ctx.Tel)
	for i := 1; i <= 3; i++ {
		lg.Classifier().RegisterIdentity(fmt.Sprintf("mix%d", i), "", "", core.NonSensitive)
	}
	c, err := newCascade(net, lg, 3, 4, false, ctx.Tel, ctx.Wire)
	return lg, c, err
}

// runMixnetScenario drives the 3-mix cascade with 8 senders over the
// seeded simulator. The ledger runs on the virtual clock, so audit
// evidence carries real virtual timestamps. parallel is ignored: the
// simulator is single-threaded and already deterministic.
func runMixnetScenario(ctx Ctx, _ int) (*ledger.Ledger, error) {
	net := ctx.NewRunner(2)
	defer net.Close()
	lg, c, err := newMixnetScenario(ctx, net)
	if err != nil {
		return nil, err
	}
	defer ctx.Tel.Phase("forward")()
	for i := 0; i < 8; i++ {
		from, msg := registerSender(lg.Classifier(), i)
		if err := c.send(net, from, ctx.Wire, msg); err != nil {
			return nil, err
		}
	}
	net.Run()
	if got := len(c.rcv.Inbox()); got != 8 {
		return nil, fmt.Errorf("mixnet scenario: delivered %d of 8 messages", got)
	}
	return lg, nil
}

// scenarioHopDelay is the logical per-hop clock step the HTTP-shaped
// fault runners use to place query i / attempt j inside a fault
// plan's windows: the event happens at (i+j) * scenarioHopDelay.
const scenarioHopDelay = 10 * time.Millisecond

// faultGate evaluates one HTTP-shaped hop attempt against a fault
// plan: a crash of node or a partition of src->node fails the attempt
// fast; active loss fails it with a deterministic splitmix64 draw
// keyed by (i, j) — never a shared RNG, so parallel clients cannot
// perturb each other. Latency spikes have no HTTP equivalent here and
// are ignored (simulator-only).
func faultGate(plan *faults.Plan, src, node transport.Addr, i, j int) error {
	t := time.Duration(i+j) * scenarioHopDelay
	if plan.CrashedAt(node, t) {
		return fmt.Errorf("scenario fault: %s at t=%s: %w", node, t, faults.ErrNodeDown)
	}
	if plan.PartitionedAt(src, node, t) {
		return fmt.Errorf("scenario fault: link %s->%s partitioned at t=%s", src, node, t)
	}
	if l := plan.LossAt(src, node, t); l > 0 && chaosFrac(0xFA017, uint64(i)<<16|uint64(j)) < l {
		return fmt.Errorf("scenario fault: link %s->%s dropped attempt %d at t=%s", src, node, j, t)
	}
	return nil
}

// odohFaultsRun is runODoHScenario with the client→proxy hop gated by
// the plan (fault node "proxy") and the clients wrapped in the
// fail-closed resilience layer. Each client's logical clock is a pure
// function of (client index, attempt), so the run stays parallel-safe
// and byte-identical for a fixed plan. With fallback set it is the
// planted odoh-failopen misconfiguration instead: clients whose
// oblivious path the plan exhausts fall back to the direct resolver.
func odohFaultsRun(ctx Ctx, parallel, clients int, plan *faults.Plan, fallback bool) (*ledger.Ledger, error) {
	s, err := newODoHStack(ctx.Tel, ctx.Wire, clients)
	if err != nil {
		return nil, err
	}
	var direct *dns.Resolver
	if fallback {
		direct = s.directResolver()
	}
	defer ctx.Tel.Phase("odoh-faults")()
	err = forEachClient(parallel, clients, func(i int) error {
		attempt := 0 // per-client, so parallel clients share nothing
		rc := s.resilient(i, resilience.Default("odoh"), func(clientAddr string, raw []byte) ([]byte, error) {
			j := attempt
			attempt++
			if gerr := faultGate(plan, "client", "proxy", i, j); gerr != nil {
				return nil, gerr
			}
			return s.proxy.Forward(clientAddr, raw)
		})
		if fallback {
			failOpen(rc, direct, nil)
		}
		// Fail-closed: a client inside a permanent fault window errors
		// out (wrapping resilience.ErrExhausted) rather than bypassing
		// the proxy; the audit then explains the healthy clients.
		_, qerr := rc.Query(dnsName(i), dnswire.TypeA)
		if qerr != nil && !errors.Is(qerr, resilience.ErrExhausted) {
			return qerr
		}
		return nil
	})
	return s.lg, err
}

// odnsFaultsRun is runODNSScenario with the recursive→oblivious hop
// gated by the plan (fault node "oblivious"). The gate's logical clock
// is the shared upstream call counter, so this runner is internally
// sequential regardless of parallel — the cost of keeping audits
// byte-identical.
func odnsFaultsRun(ctx Ctx, _, clients int, plan *faults.Plan) (*ledger.Ledger, error) {
	s, err := newODNSStack(ctx.Tel, ctx.Wire, clients)
	if err != nil {
		return nil, err
	}
	calls := 0
	gated := &downAuthority{Authority: s.oblivious, down: func() bool {
		n := calls
		calls++
		return faultGate(plan, "resolver", "oblivious", n, 0) != nil
	}}
	recursive := dns.NewResolver("Resolver", []dns.Authority{gated, s.origin}, s.lg, nil)
	recursive.Wire = ctx.Wire
	defer ctx.Tel.Phase("odns-faults")()
	for i := 0; i < clients; i++ {
		_, qerr := s.client(i, recursive).QueryResilient(dnsName(i), dnswire.TypeA, resilience.Default("odns"), ctx.Tel, nil)
		if qerr != nil && !errors.Is(qerr, resilience.ErrExhausted) {
			return nil, qerr
		}
	}
	return s.lg, nil
}

// mixnetFaultsRun is runMixnetScenario with the plan applied to the
// simulator and `senders` senders driven through RetryAsync on the
// virtual clock (fail-closed; staggered sends so retries interleave
// deterministically). parallel is ignored. Unlike the healthy runner
// it tolerates losses: the audit's job under faults is to explain what
// WAS observed.
func mixnetFaultsRun(ctx Ctx, _, senders int, plan *faults.Plan) (*ledger.Ledger, error) {
	net := ctx.NewNet(2)
	lg, c, err := newMixnetScenario(ctx, net)
	if err != nil {
		return nil, err
	}
	net.ApplyFaults(plan)
	defer ctx.Tel.Phase("forward-faults")()
	p := resilience.Default("mixnet")
	p.Timeout = 80 * time.Millisecond
	for i := 0; i < senders; i++ {
		i := i
		from, msg := registerSender(lg.Classifier(), i)
		net.After(time.Duration(i)*time.Millisecond, func() {
			resilience.RetryAsync(net, ctx.Tel, p, uint64(0xA0D17<<8)|uint64(i),
				func(int) error { return c.send(net, from, ctx.Wire, msg) },
				func() bool { return c.delivered(msg) },
				nil)
		})
	}
	net.Run()
	if len(c.rcv.Inbox()) == 0 && !plan.Empty() {
		return lg, ErrNothingDelivered
	}
	return lg, nil
}
