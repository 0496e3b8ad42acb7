package experiments

import (
	"fmt"

	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/mixnet"
	"decoupling/internal/odns"
	"decoupling/internal/odoh"
	"decoupling/internal/onion"
	"decoupling/internal/resilience"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
	"decoupling/internal/transport"
)

// The protocol stacks every experiment, scenario and probe shares: the
// §3.2.2 ODoH and ODNS deployments, the §3.1.2 mix cascade and onion
// relays, each built and instrumented in one place so every run that
// measures a stack audits the same thing. Callers inject faults around
// a stack, on the hop their experiment exercises, never inside it.

// auditDNSNames is the query workload shared by the DNS stacks.
var auditDNSNames = []string{"www.example.com", "mail.example.com", "secret.example.com", "api.example.com"}

const auditDNSClients = 20

// dnsName is the name client i queries.
func dnsName(i int) string { return auditDNSNames[i%len(auditDNSNames)] }

func auditZone() *dns.Zone {
	z := dns.NewZone("example.com")
	for i, n := range auditDNSNames {
		z.Add(dnswire.A(n, 300, [4]byte{192, 0, 2, byte(i)}))
	}
	return z
}

// dnsLedger returns a fresh ledger for a DNS stack serving `clients`
// clients. Its classifier knows the client identities and query names
// (sensitive) plus the infrastructure names (non-sensitive, so audit
// reports render them unredacted).
func dnsLedger(tel *telemetry.Telemetry, clients int, infra ...string) *ledger.Ledger {
	cls := ledger.NewClassifier()
	for i := 0; i < clients; i++ {
		who := fmt.Sprintf("client-%d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(dnswire.CanonicalName(dnsName(i)), who, "", core.Sensitive)
	}
	for _, name := range infra {
		cls.RegisterIdentity(name, "", "", core.NonSensitive)
	}
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)
	return lg
}

// odohStack is the ODoH deployment: the origin behind the target
// behind the proxy, on one ledger. Clients reach it through
// proxy.Forward, or through a forward wrapper that injects faults on
// the client→proxy hop.
type odohStack struct {
	lg         *ledger.Ledger
	origin     *dns.AuthServer
	proxy      *odoh.Proxy
	keyID, pub []byte
	tel        *telemetry.Telemetry
	wire       *wiretrace.Plane
}

func newODoHStack(tel *telemetry.Telemetry, wire *wiretrace.Plane, clients int) (*odohStack, error) {
	lg := dnsLedger(tel, clients, odoh.ProxyName, odoh.TargetName, "Origin")
	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{auditZone()}, Ledger: lg, Wire: wire}
	target, err := odoh.NewTarget(odoh.TargetName, origin, lg)
	if err != nil {
		return nil, err
	}
	target.Instrument(tel)
	target.InstrumentWire(wire)
	proxy := odoh.NewProxy(odoh.ProxyName, target, lg)
	proxy.Instrument(tel)
	proxy.InstrumentWire(wire)
	keyID, pub := target.KeyConfig()
	return &odohStack{lg: lg, origin: origin, proxy: proxy, keyID: keyID, pub: pub, tel: tel, wire: wire}, nil
}

// client returns client i's ODoH client.
func (s *odohStack) client(i int) *odoh.Client {
	c := odoh.NewClient(fmt.Sprintf("client-%d", i), s.keyID, s.pub)
	c.InstrumentWire(s.wire)
	return c
}

// resilient returns client i wrapped in the resilience layer, failing
// over across forwards under policy p.
func (s *odohStack) resilient(i int, p resilience.Policy, forwards ...odoh.ForwardFunc) *odoh.ResilientClient {
	rc := &odoh.ResilientClient{Client: s.client(i), Policy: p, Forwards: forwards}
	rc.Instrument(s.tel)
	return rc
}

// directResolver is the escape hatch of the fail-open
// misconfiguration: a plain recursive resolver registered under the
// proxy's own role, so falling back to it hands the proxy operator
// plaintext names.
func (s *odohStack) directResolver() *dns.Resolver {
	return dns.NewResolver(odoh.ProxyName, []dns.Authority{s.origin}, s.lg, nil)
}

// failOpen plants the misconfiguration E16 and the odoh-failopen probe
// exist to catch: once every oblivious path is exhausted, rc resolves
// through direct instead of failing. A ResilientClient consults its
// Fallback only under an explicit FailOpen policy, so the
// misconfiguration takes both the mode and the hook. fallbacks, when
// non-nil, counts the fallbacks taken.
func failOpen(rc *odoh.ResilientClient, direct *dns.Resolver, fallbacks *int) {
	who := rc.Client.ID
	rc.Policy.Mode = resilience.FailOpen
	rc.Fallback = func(name string, qtype dnswire.Type) (*dnswire.Message, error) {
		if fallbacks != nil {
			*fallbacks++
		}
		resp := direct.Resolve(who, dnswire.NewQuery(1, name, qtype))
		if resp.RCode != dnswire.RCodeNoError {
			return nil, fmt.Errorf("direct fallback failed: rcode=%v", resp.RCode)
		}
		return resp, nil
	}
}

// odnsStack is the ODNS deployment: the oblivious resolver in front of
// the origin, on one ledger. Each caller puts its own recursive
// resolver ("Resolver") in front, because the resolver→oblivious hop
// is where faults land.
type odnsStack struct {
	lg        *ledger.Ledger
	origin    *dns.AuthServer
	oblivious *odns.ObliviousResolver
	wire      *wiretrace.Plane
}

func newODNSStack(tel *telemetry.Telemetry, wire *wiretrace.Plane, clients int) (*odnsStack, error) {
	lg := dnsLedger(tel, clients, "Resolver", odns.ObliviousResolverName, "Origin")
	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{auditZone()}, Ledger: lg, Wire: wire}
	oblivious, err := odns.NewObliviousResolver(origin, lg)
	if err != nil {
		return nil, err
	}
	oblivious.InstrumentWire(wire)
	return &odnsStack{lg: lg, origin: origin, oblivious: oblivious, wire: wire}, nil
}

// client returns client i's ODNS client, querying through recursive.
func (s *odnsStack) client(i int, recursive *dns.Resolver) *odns.Client {
	c := odns.NewClient(fmt.Sprintf("client-%d", i), s.oblivious.PublicKey(), recursive)
	c.InstrumentWire(s.wire)
	return c
}

// downAuthority answers SERVFAIL while down reports its upstream
// unreachable, without the upstream seeing the query. The resolver in
// front still observes every failed attempt: a retry leaks a count,
// never a name.
type downAuthority struct {
	dns.Authority
	down func() bool
}

func (d *downAuthority) Handle(from string, q *dnswire.Message) *dnswire.Message {
	if d.down() {
		r := q.Reply()
		r.RCode = dnswire.RCodeServFail
		return r
	}
	return d.Authority.Handle(from, q)
}

// cascade is the mix cascade: Mix 1..n at mix1..mixN, each flushing
// at a batch threshold, in front of the receiver.
type cascade struct {
	route []mixnet.NodeInfo
	rcv   *mixnet.Receiver
}

// newCascade registers the cascade on lg with the given number of
// mixes. A padded receiver strips the padding senders add
// (mixnet.Sender.PadTo).
func newCascade(net transport.Transport, lg *ledger.Ledger, mixes, batch int, padded bool, tel *telemetry.Telemetry, wire *wiretrace.Plane) (*cascade, error) {
	c := &cascade{}
	for i := 1; i <= mixes; i++ {
		m, err := mixnet.NewMix(net, fmt.Sprintf("Mix %d", i), transport.Addr(fmt.Sprintf("mix%d", i)), batch, 0, lg)
		if err != nil {
			return nil, err
		}
		m.Instrument(tel)
		m.InstrumentWire(wire)
		c.route = append(c.route, m.Info())
	}
	rcv, err := mixnet.NewReceiver(net, "Receiver", "receiver", padded, lg)
	if err != nil {
		return nil, err
	}
	rcv.InstrumentWire(wire)
	c.rcv = rcv
	return c, nil
}

// send onion-wraps msg from the sender at address from through the
// cascade; a non-nil wire plane traces the send.
func (c *cascade) send(net transport.Transport, from transport.Addr, wire *wiretrace.Plane, msg string) error {
	s := &mixnet.Sender{Addr: from, Wire: wire}
	return s.Send(net, c.route, c.rcv.Info(), []byte(msg))
}

// delivered reports whether msg reached the receiver.
func (c *cascade) delivered(msg string) bool {
	for _, got := range c.rcv.Inbox() {
		if string(got.Body) == msg {
			return true
		}
	}
	return false
}

// newOnion registers the onion deployment on lg: Relay 1..n at
// relay1..relayN and the origin, which answers every request with
// respSize bytes. It returns the relays' descriptors for circuit
// building; a nil tel leaves the relays uninstrumented.
func newOnion(net transport.Transport, lg *ledger.Ledger, hops, respSize int, tel *telemetry.Telemetry) ([]onion.RelayInfo, error) {
	var relays []onion.RelayInfo
	for i := 1; i <= hops; i++ {
		rl, err := onion.NewRelay(net, fmt.Sprintf("Relay %d", i), transport.Addr(fmt.Sprintf("relay%d", i)), lg)
		if err != nil {
			return nil, err
		}
		rl.Instrument(tel)
		relays = append(relays, rl.Info())
	}
	onion.NewOrigin(net, "Origin", "origin", respSize, lg)
	return relays, nil
}

// registerSender registers mix sender i and its message as sensitive
// ground truth and returns them.
func registerSender(cls *ledger.Classifier, i int) (transport.Addr, string) {
	sender := fmt.Sprintf("sender%02d", i)
	msg := fmt.Sprintf("private message %02d", i)
	cls.RegisterIdentity(sender, sender, "", core.Sensitive)
	cls.RegisterData(msg, sender, "", core.Sensitive)
	return transport.Addr(sender), msg
}
