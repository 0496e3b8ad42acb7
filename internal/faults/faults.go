// Package faults is the transport-neutral fault-plan grammar shared by
// the deterministic simulator (internal/simnet) and the real loopback
// transport (internal/nettransport).
//
// A Plan is a declarative schedule of failures — node crash/restart
// windows, link partitions, burst loss, and latency spikes — evaluated
// against SOME clock. The grammar never says which one: simnet reads
// windows on its virtual clock, nettransport on the wall clock since
// construction. Everything else (window queries, the canonical Spec
// round-trip, the named plans, crash-overlap validation) is identical,
// which is what lets one -faults string drive either transport and lets
// fault plans ride inside replay traces unchanged.
//
// Determinism rules:
//
//   - Windows are half-open [From, Until); Until <= 0 means the fault
//     never clears.
//   - Burst loss is decided by LossDraw, a pure splitmix64 function of
//     (seed, src, dst, per-link attempt counter). Both transports key
//     the counter per directed link, so the n-th in-window datagram on
//     a link meets the same fate no matter how goroutines or virtual
//     events interleave — injected loss is reproducible even where RNG
//     draw ORDER is not. The simulator has no other loss model.
//   - Crash/restart transition ORDERING against in-flight traffic is
//     transport policy: simnet schedules queue events, nettransport
//     arms wall-clock timers.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"decoupling/internal/telemetry"
	"decoupling/internal/transport"
)

// ErrNodeDown is wrapped into Send errors when the source or destination
// node is inside a crash window. Unlike silent link loss, a send to a
// crashed node fails fast — the caller's retry logic gets an immediate,
// typed signal (the moral equivalent of a connection refused).
var ErrNodeDown = errors.New("faults: node down")

// ErrOverlappingCrash is wrapped into ParsePlan errors when two crash
// windows can cover the same node at the same instant. Overlap is
// rejected rather than merged because the transitions are scheduled
// independently: the first window's restart would bring the node up in
// the middle of the second window, silently contradicting the spec.
var ErrOverlappingCrash = errors.New("faults: overlapping crash windows for the same node")

// ErrShed is wrapped into Send errors when an overloaded transport sheds
// a datagram instead of blocking: a bounded queue stayed full past the
// shed deadline. Shedding is always loud — typed error to the sender or
// a counted drop at the receiver, never a silent disappearance.
var ErrShed = errors.New("faults: overloaded, message shed")

// Wildcard matches any node in a fault's Node/Src/Dst position.
const Wildcard transport.Addr = "*"

// Kind enumerates the injectable failure modes.
type Kind int

const (
	// FaultCrash takes a node down for a window: inbound datagrams are
	// dropped, sends from/to it fail with ErrNodeDown, and its pending
	// timers are cancelled.
	FaultCrash Kind = iota
	// FaultPartition silently drops every datagram on a directed link
	// for a window (the wire gives no error — only timeouts notice).
	FaultPartition
	// FaultLoss raises a directed link's drop probability for a window
	// (burst loss).
	FaultLoss
	// FaultSpike adds fixed extra latency on a directed link for a
	// window.
	FaultSpike
)

// Fault is one scheduled failure. Src/Dst/Node may be Wildcard.
type Fault struct {
	Kind Kind
	Node transport.Addr // FaultCrash target
	Src  transport.Addr // link faults: directed source
	Dst  transport.Addr // link faults: directed destination
	// Window [From, Until); Until <= 0 = never clears.
	From, Until time.Duration
	Loss        float64       // FaultLoss probability in [0, 1]
	Extra       time.Duration // FaultSpike added latency
}

func (f Fault) active(t time.Duration) bool {
	return t >= f.From && (f.Until <= 0 || t < f.Until)
}

func matchAddr(pat, a transport.Addr) bool { return pat == Wildcard || pat == a }

// Plan is an immutable-once-applied schedule of faults. The builder
// methods return the plan for chaining.
type Plan struct {
	faults []Fault
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Injector is implemented by transports that can overlay a fault plan
// on live traffic: simnet.Network and nettransport.Net. Callers that
// hold only a transport.Runner type-assert for it, so fault-free
// transports stay fault-free by construction.
type Injector interface {
	ApplyFaults(p *Plan)
}

// Crash schedules node down during [from, until); until <= 0 means no
// restart.
func (p *Plan) Crash(node transport.Addr, from, until time.Duration) *Plan {
	p.faults = append(p.faults, Fault{Kind: FaultCrash, Node: node, From: from, Until: until})
	return p
}

// Partition severs the link between a and b in both directions during
// [from, until).
func (p *Plan) Partition(a, b transport.Addr, from, until time.Duration) *Plan {
	return p.PartitionOneWay(a, b, from, until).PartitionOneWay(b, a, from, until)
}

// PartitionOneWay severs only the directed link src->dst.
func (p *Plan) PartitionOneWay(src, dst transport.Addr, from, until time.Duration) *Plan {
	p.faults = append(p.faults, Fault{Kind: FaultPartition, Src: src, Dst: dst, From: from, Until: until})
	return p
}

// Loss raises the directed link's drop probability to at least prob
// during [from, until).
func (p *Plan) Loss(src, dst transport.Addr, prob float64, from, until time.Duration) *Plan {
	p.faults = append(p.faults, Fault{Kind: FaultLoss, Src: src, Dst: dst, Loss: prob, From: from, Until: until})
	return p
}

// LatencySpike adds extra delay on the directed link during [from,
// until). Overlapping spikes sum.
func (p *Plan) LatencySpike(src, dst transport.Addr, extra, from, until time.Duration) *Plan {
	p.faults = append(p.faults, Fault{Kind: FaultSpike, Src: src, Dst: dst, Extra: extra, From: from, Until: until})
	return p
}

// Merge appends every fault of o (overlay semantics).
func (p *Plan) Merge(o *Plan) *Plan {
	if o != nil {
		p.faults = append(p.faults, o.faults...)
	}
	return p
}

// Faults returns a copy of the schedule.
func (p *Plan) Faults() []Fault {
	if p == nil {
		return nil
	}
	return append([]Fault(nil), p.faults...)
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.faults) == 0 }

// CrashedAt reports whether node is inside any crash window at t. It is
// a pure window query: protocols that run outside any transport (the
// HTTP-based stacks) can evaluate the same plan against their own
// logical clocks.
func (p *Plan) CrashedAt(node transport.Addr, t time.Duration) bool {
	if p == nil {
		return false
	}
	for _, f := range p.faults {
		if f.Kind == FaultCrash && matchAddr(f.Node, node) && f.active(t) {
			return true
		}
	}
	return false
}

// PartitionedAt reports whether the directed link src->dst is severed
// at t.
func (p *Plan) PartitionedAt(src, dst transport.Addr, t time.Duration) bool {
	if p == nil {
		return false
	}
	for _, f := range p.faults {
		if f.Kind == FaultPartition && matchAddr(f.Src, src) && matchAddr(f.Dst, dst) && f.active(t) {
			return true
		}
	}
	return false
}

// LossAt returns the highest injected loss probability on src->dst at t
// (0 when no loss fault is active).
func (p *Plan) LossAt(src, dst transport.Addr, t time.Duration) float64 {
	if p == nil {
		return 0
	}
	var loss float64
	for _, f := range p.faults {
		if f.Kind == FaultLoss && matchAddr(f.Src, src) && matchAddr(f.Dst, dst) && f.active(t) && f.Loss > loss {
			loss = f.Loss
		}
	}
	return loss
}

// SpikeAt returns the summed extra latency on src->dst at t.
func (p *Plan) SpikeAt(src, dst transport.Addr, t time.Duration) time.Duration {
	if p == nil {
		return 0
	}
	var extra time.Duration
	for _, f := range p.faults {
		if f.Kind == FaultSpike && matchAddr(f.Src, src) && matchAddr(f.Dst, dst) && f.active(t) {
			extra += f.Extra
		}
	}
	return extra
}

// Spec renders the plan in the ParsePlan grammar, one clause per fault
// in schedule order. The output is canonical — parsing it yields an
// equal plan whose Spec is byte-identical — which is what lets fault
// plans ride inside replay traces and shrink by clause removal. Both-
// direction partitions built with Partition serialize as their two
// one-way clauses.
func (p *Plan) Spec() string {
	if p.Empty() {
		return ""
	}
	clauses := make([]string, 0, len(p.faults))
	for _, f := range p.faults {
		w := f.From.String() + "-"
		if f.Until > 0 {
			w += f.Until.String()
		}
		switch f.Kind {
		case FaultCrash:
			clauses = append(clauses, fmt.Sprintf("crash:%s@%s", f.Node, w))
		case FaultPartition:
			clauses = append(clauses, fmt.Sprintf("partition:%s>%s@%s", f.Src, f.Dst, w))
		case FaultLoss:
			clauses = append(clauses, fmt.Sprintf("loss:%s>%s:%s@%s",
				f.Src, f.Dst, strconv.FormatFloat(f.Loss, 'g', -1, 64), w))
		case FaultSpike:
			clauses = append(clauses, fmt.Sprintf("spike:%s>%s:%s@%s", f.Src, f.Dst, f.Extra, w))
		}
	}
	return strings.Join(clauses, ";")
}

// ValidateCrashWindows rejects fault sets where two crash windows can
// cover the same node at the same instant (Wildcard overlaps
// everything).
func ValidateCrashWindows(faults []Fault) error {
	var crashes []Fault
	for _, f := range faults {
		if f.Kind == FaultCrash {
			crashes = append(crashes, f)
		}
	}
	for i, f := range crashes {
		for _, g := range crashes[i+1:] {
			if f.Node != g.Node && f.Node != Wildcard && g.Node != Wildcard {
				continue
			}
			// Half-open windows [From, Until) with Until <= 0 = forever.
			disjoint := (f.Until > 0 && f.Until <= g.From) || (g.Until > 0 && g.Until <= f.From)
			if !disjoint {
				return fmt.Errorf("%w: %s@%s- and %s@%s-", ErrOverlappingCrash, f.Node, f.From, g.Node, g.From)
			}
		}
	}
	return nil
}

// ParsePlan parses a compact spec string:
//
//	crash:NODE@FROM-[UNTIL]
//	partition:A<>B@FROM-[UNTIL]     (both directions)
//	partition:A>B@FROM-[UNTIL]      (one direction)
//	loss:SRC>DST:PROB@FROM-[UNTIL]
//	spike:SRC>DST:EXTRA@FROM-[UNTIL]
//
// Faults are ';'-separated; addresses may be "*"; FROM/UNTIL are Go
// durations ("25ms"); an empty UNTIL means the fault never clears.
//
//	crash:mix2@25ms-120ms;loss:*>mix1:0.3@0-;spike:exit>origin:40ms@50ms-90ms
func ParsePlan(spec string) (*Plan, error) {
	p := NewPlan()
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("faults: fault %q: missing kind", part)
		}
		body, window, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("faults: fault %q: missing @window", part)
		}
		from, until, err := parseWindow(window)
		if err != nil {
			return nil, fmt.Errorf("faults: fault %q: %w", part, err)
		}
		switch kind {
		case "crash":
			if body == "" {
				return nil, fmt.Errorf("faults: fault %q: missing node", part)
			}
			p.Crash(transport.Addr(body), from, until)
		case "partition":
			if a, b, ok := strings.Cut(body, "<>"); ok {
				p.Partition(transport.Addr(a), transport.Addr(b), from, until)
			} else if a, b, ok := strings.Cut(body, ">"); ok {
				p.PartitionOneWay(transport.Addr(a), transport.Addr(b), from, until)
			} else {
				return nil, fmt.Errorf("faults: fault %q: want A<>B or A>B", part)
			}
		case "loss":
			link, probStr, ok := strings.Cut(body, ":")
			src, dst, ok2 := strings.Cut(link, ">")
			if !ok || !ok2 {
				return nil, fmt.Errorf("faults: fault %q: want SRC>DST:PROB", part)
			}
			prob, err := strconv.ParseFloat(probStr, 64)
			if err != nil || !(prob >= 0 && prob <= 1) {
				return nil, fmt.Errorf("faults: fault %q: loss probability must be in [0,1]", part)
			}
			p.Loss(transport.Addr(src), transport.Addr(dst), prob, from, until)
		case "spike":
			link, extraStr, ok := strings.Cut(body, ":")
			src, dst, ok2 := strings.Cut(link, ">")
			if !ok || !ok2 {
				return nil, fmt.Errorf("faults: fault %q: want SRC>DST:EXTRA", part)
			}
			extra, err := time.ParseDuration(extraStr)
			if err != nil || extra < 0 {
				return nil, fmt.Errorf("faults: fault %q: bad spike duration %q", part, extraStr)
			}
			p.LatencySpike(transport.Addr(src), transport.Addr(dst), extra, from, until)
		default:
			return nil, fmt.Errorf("faults: fault %q: unknown kind %q (crash, partition, loss, spike)", part, kind)
		}
	}
	if err := ValidateCrashWindows(p.faults); err != nil {
		return nil, err
	}
	return p, nil
}

func parseWindow(w string) (from, until time.Duration, err error) {
	fromStr, untilStr, ok := strings.Cut(w, "-")
	if !ok {
		return 0, 0, fmt.Errorf("window %q: want FROM-[UNTIL]", w)
	}
	if fromStr != "" {
		if from, err = time.ParseDuration(fromStr); err != nil || from < 0 {
			return 0, 0, fmt.Errorf("window %q: bad FROM", w)
		}
	}
	if untilStr != "" {
		if until, err = time.ParseDuration(untilStr); err != nil || until <= from {
			return 0, 0, fmt.Errorf("window %q: UNTIL must be a duration after FROM", w)
		}
	}
	return from, until, nil
}

// namedPlans are the canonical chaos schedules selectable by name via
// the -faults flags (spec strings remain accepted for ad-hoc plans).
var namedPlans = map[string]string{
	// flaky: 20% burst loss on every link from t=0, forever.
	"flaky": "loss:*>*:0.2@0-",
	// split: every link severed for a mid-run window.
	"split": "partition:*>*@30ms-80ms",
	// tail: a latency spike on every link mid-run.
	"tail": "spike:*>*:40ms@30ms-120ms",
}

// NamedPlans returns the selectable plan names, sorted.
func NamedPlans() []string {
	names := make([]string, 0, len(namedPlans))
	for n := range namedPlans {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PlanFromSpec resolves a -faults argument: a registered plan name or a
// ParsePlan spec string. Empty means no plan (nil).
func PlanFromSpec(spec string) (*Plan, error) {
	if spec == "" {
		return nil, nil
	}
	if named, ok := namedPlans[spec]; ok {
		spec = named
	}
	return ParsePlan(spec)
}

// LossDraw maps (seed, src, dst, n) to a uniform float in [0, 1) via
// the splitmix64 finalizer: the fate of the n-th in-window datagram on
// a directed link is a pure function of the transport seed and the
// link, independent of goroutine or virtual-event interleaving. Both
// transports draw from this — never from a shared RNG — for INJECTED
// loss, which is what makes chaos availability tables byte-comparable
// between simnet and the real wire.
func LossDraw(seed int64, src, dst transport.Addr, n uint64) float64 {
	h := telemetry.Mix64(uint64(seed) ^ hashAddr(src)*0x9e3779b97f4a7c15 ^ hashAddr(dst))
	return float64(telemetry.Mix64(h^n)%(1<<20)) / (1 << 20)
}

// hashAddr is FNV-1a over the address bytes.
func hashAddr(a transport.Addr) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= 1099511628211
	}
	return h
}
