package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decoupling/internal/dcrypto/hpke"
	"decoupling/internal/ledger"
	"decoupling/internal/mixnet"
	"decoupling/internal/nettransport"
	"decoupling/internal/transport"
	"decoupling/internal/workload"
)

// The mixnet workload is an open loop: messages are due on a Poisson
// schedule whether or not earlier ones have been delivered, and each is
// timed from when it was due, so a stall also charges the messages
// queued behind it. mixnet.Sender.Send goes through three mixnet.Mix
// relays to a mixnet.Receiver over nettransport in TCP mode, with packet
// capture and the ledger off: the workload loads onion HPKE, the frame
// codec, writers, dispatch inboxes and batching, and bypasses HTTP and
// the ledger.

const relays = 3

// lateLimit is the generator lateness beyond which a window's latencies
// measure the timer more than the program.
const lateLimit = 5 * time.Millisecond

func runMixnet(cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{layers: map[string]time.Duration{}}
	start := time.Now()
	var late []float64
	var flushes, relayed int
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		l, f, r, err := mixRound(cfg, tr, round, out)
		if err != nil {
			return nil, err
		}
		late = append(late, l...)
		flushes += f
		relayed += r
	}
	invalid := 0
	for _, l := range late {
		if l > ms(lateLimit) {
			invalid++
		}
	}
	out.note("loadgen.late_p99_ms", median(late), "ms")
	out.note("loadgen.late_invalid_windows", float64(invalid), "count")
	out.note("mixnet.batch_size_mean", float64(relayed)/float64(flushes), "count")
	if out.ops() == 0 {
		return nil, errNoWork
	}
	return out, nil
}

// mixRound sets up a fresh cascade, warms it, and runs one open-loop
// stretch. It returns the per-window p99 generator lateness in ms, and
// the mixes' flush and relayed-message counts.
func mixRound(cfg config, tr *tracer, round int, out *outcome) (late []float64, flushes, relayed int, err error) {
	stream := cfg.seed*1_000_003 + int64(round)
	setupStart := time.Now()
	nt := nettransport.New(nettransport.Options{Mode: nettransport.ModeTCP, Seed: stream, DisableCapture: true})
	defer nt.Close()
	var hops *hopTimer
	view := func(role string) transport.Transport {
		if tr == nil {
			return nt
		}
		return &timedNet{Transport: nt, h: hops, role: role}
	}
	if tr != nil {
		hops = newHopTimer(tr, nt)
	}
	var route []mixnet.NodeInfo
	var mixes []*mixnet.Mix
	for i := 1; i <= relays; i++ {
		m, err := mixnet.NewMix(view("mixnet.hop_handle"), fmt.Sprintf("Relay %d", i),
			transport.Addr(fmt.Sprintf("relay%d", i)), cfg.mixThreshold, cfg.mixTimeout, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		mixes = append(mixes, m)
		route = append(route, m.Info())
	}
	rcv, err := mixnet.NewReceiver(view("mixnet.receiver_handle"), "Receiver", "receiver", false, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	warm := &mixnet.Sender{Addr: "warmup"}
	for i := 0; i < cfg.mixWarmup; i++ {
		if err := warm.Send(nt, route, rcv.Info(), []byte(fmt.Sprintf("warm %06d", i))); err != nil {
			out.fail("mixnet warm-up send: %v", err)
		}
	}
	nt.Run()
	out.setups = append(out.setups, time.Since(setupStart).Seconds())

	arrivals, err := workload.NewArrivals(stream, cfg.mixRate)
	if err != nil {
		return nil, 0, 0, err
	}
	var offs []time.Duration
	for at := arrivals.Next(); at < cfg.mixRound; at += arrivals.Next() {
		offs = append(offs, at)
	}
	bodies := make(map[string]int, len(offs))
	body := func(i int) []byte { return []byte(fmt.Sprintf("round %d message %08d", round, i)) }
	for i := range offs {
		bodies[string(body(i))] = i
	}
	if onion, err := mixnet.BuildOnion(route, rcv.Info(), body(0), 0); err == nil {
		out.hpkeSize = len(onion) - hpke.NEnc - 16
	}

	hops.start()
	m := startMeter()
	base := nt.Now()
	lateBy := make([]time.Duration, len(offs)) // slot i is written by the goroutine that sends i
	var next atomic.Int64
	var mu sync.Mutex
	var sendErrs []error
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var net transport.Transport = nt
			var tn *timedNet
			if hops != nil {
				tn = &timedNet{Transport: nt, h: hops}
				net = tn
			}
			s := &mixnet.Sender{Addr: transport.Addr(fmt.Sprintf("sender%d", g))}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(offs) {
					return
				}
				due := base + offs[i]
				if d := due - nt.Now(); d > 0 {
					time.Sleep(d)
				}
				at := nt.Now()
				lateBy[i] = at - due
				if cfg.plantDrop && i == 0 {
					continue
				}
				err := s.Send(net, route, rcv.Info(), body(i))
				if tn != nil {
					hops.span("loadgen.late", due, at)
					hops.span("mixnet.send", at, tn.lastSend)
				}
				if err != nil {
					mu.Lock()
					sendErrs = append(sendErrs, fmt.Errorf("mixnet send: %w", err))
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	nt.Run()
	ph := phase{}
	m.stop(&ph)

	seen := make([]int, len(offs))
	warmSeen, unknown := 0, 0
	for _, r := range rcv.Inbox() {
		i, ok := bodies[string(r.Body)]
		switch {
		case ok:
			seen[i]++
			if seen[i] == 1 {
				ph.ops = append(ph.ops, op{done: r.Time - base, latency: r.Time - base - offs[i]})
			}
		case len(r.Body) > 5 && string(r.Body[:5]) == "warm ":
			warmSeen++
		default:
			unknown++
		}
	}
	sort.Slice(ph.ops, func(i, j int) bool { return ph.ops[i].done < ph.ops[j].done })
	out.phases = append(out.phases, ph)
	out.attempted += len(offs)
	for i, n := range seen {
		if n != 1 {
			sendErrs = append(sendErrs, fmt.Errorf("mixnet message %d of round %d delivered %d times, want exactly once", i, round, n))
		}
	}
	out.failEach(sendErrs)
	if warmSeen != cfg.mixWarmup || unknown != 0 {
		out.fail("mixnet receiver got %d of %d warm-up messages and %d unknown bodies", warmSeen, cfg.mixWarmup, unknown)
	}
	if lost, shed := nt.Lost(), nt.Shed(); lost != 0 || shed != 0 {
		out.fail("nettransport lost %d and shed %d frames", lost, shed)
	}
	if d := rcv.Dropped(); d != 0 {
		out.fail("receiver dropped %d messages", d)
	}
	for _, mx := range mixes {
		f, dropped := mx.Stats()
		flushes += f
		if dropped != 0 {
			out.fail("%s dropped %d messages", mx.Name, dropped)
		}
	}
	relayed = relays * (cfg.mixWarmup + len(offs))
	if hops != nil {
		wait, err := hops.batchWait()
		if err != nil {
			out.fail("mixnet trace: %v", err)
		}
		out.layers["mixnet.batch_wait"] += wait
	}
	for w := 0; w < windows; w++ {
		win := append([]time.Duration(nil), lateBy[w*len(lateBy)/windows:(w+1)*len(lateBy)/windows]...)
		if len(win) == 0 {
			continue
		}
		vals := make([]float64, len(win))
		for i, d := range win {
			vals[i] = ms(d)
		}
		sort.Float64s(vals)
		late = append(late, quantile(vals, 0.99))
	}
	out.heaps = append(out.heaps, liveHeapMB())
	return late, flushes, relayed, nil
}

// timedNet is the transport.Transport decorator traced mixnet runs hand
// to NewMix, NewReceiver and the senders. Send notes when each payload
// left; Register wraps the handler so its busy time is timed and it runs
// against a delegating timedNet view of the transport it is given, so
// the sends it makes (directly or from its batch-flush timer) are noted
// too.
type timedNet struct {
	transport.Transport
	h    *hopTimer
	role string // span name for handlers registered through this view
	// lastSend is when the last Send through this view reached the
	// transport. Each view is used by one goroutine: a sender, or the
	// node dispatcher that runs the handler and its timers.
	lastSend time.Duration
}

func (t *timedNet) Send(src, dst transport.Addr, payload []byte) error {
	t.lastSend = t.Now()
	t.h.sent(src, payload, t.lastSend)
	return t.Transport.Send(src, dst, payload)
}

func (t *timedNet) Register(addr transport.Addr, handler transport.Handler) {
	role, hops := t.role, t.h
	t.Transport.Register(addr, func(inner transport.Transport, msg transport.Message) {
		entry := inner.Now()
		handler(&timedNet{Transport: inner, h: hops}, msg)
		hops.handled(role, msg, entry, inner.Now())
	})
}

// hopTimer correlates each hop's send with the next handler's entry by
// the ledger.Hash of the payload, and keeps per-node sums of send and
// handler-exit times. A mix's batch wait cannot be paired message by
// message from outside (its output is unlinkable to its input by
// design), but every message leaves each mix exactly once, so the sum
// of its sends minus the sum of its handler exits is the mix's total
// batch wait whatever the pairing.
type hopTimer struct {
	tr  *tracer
	off time.Duration // tracer clock minus transport clock
	on  atomic.Bool   // off during warm-up

	mu      sync.Mutex
	pending map[string]sentAt
	sendSum map[transport.Addr]time.Duration
	sendN   map[transport.Addr]int
	exitSum map[transport.Addr]time.Duration
	exitN   map[transport.Addr]int
}

type sentAt struct {
	at  time.Duration
	req uint64
}

func newHopTimer(tr *tracer, nt *nettransport.Net) *hopTimer {
	return &hopTimer{
		tr: tr, off: tr.now() - nt.Now(),
		pending: map[string]sentAt{},
		sendSum: map[transport.Addr]time.Duration{}, sendN: map[transport.Addr]int{},
		exitSum: map[transport.Addr]time.Duration{}, exitN: map[transport.Addr]int{},
	}
}

// start begins recording; nil-safe, so untraced runs call it too.
func (h *hopTimer) start() {
	if h != nil {
		h.on.Store(true)
	}
}

func (h *hopTimer) span(name string, from, to time.Duration) {
	h.tr.add(h.tr.id(), 0, 0, name, from+h.off, to+h.off)
}

func (h *hopTimer) sent(src transport.Addr, payload []byte, at time.Duration) {
	if !h.on.Load() {
		return
	}
	key := ledger.Hash(payload)
	h.mu.Lock()
	h.pending[key] = sentAt{at, h.tr.id()}
	h.sendSum[src] += at
	h.sendN[src]++
	h.mu.Unlock()
}

func (h *hopTimer) handled(role string, msg transport.Message, entry, exit time.Duration) {
	if !h.on.Load() {
		return
	}
	key := ledger.Hash(msg.Payload)
	h.mu.Lock()
	s, ok := h.pending[key]
	delete(h.pending, key)
	h.exitSum[msg.Dst] += exit
	h.exitN[msg.Dst]++
	h.mu.Unlock()
	if ok {
		h.tr.add(h.tr.id(), 0, s.req, "nettransport.hop_wait", s.at+h.off, entry+h.off)
	}
	h.tr.add(h.tr.id(), 0, s.req, role, entry+h.off, exit+h.off)
}

// batchWait returns the summed batch wait over the nodes that both
// received and sent (the mixes), after the round has drained.
func (h *hopTimer) batchWait() (time.Duration, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var total time.Duration
	for addr, n := range h.exitN {
		if h.sendN[addr] == 0 {
			continue // the receiver
		}
		if h.sendN[addr] != n {
			return 0, fmt.Errorf("%s handled %d messages but sent %d", addr, n, h.sendN[addr])
		}
		total += h.sendSum[addr] - h.exitSum[addr]
	}
	if len(h.pending) != 0 {
		return total, fmt.Errorf("%d sends never reached a handler", len(h.pending))
	}
	return total, nil
}
