// Package mpr implements a Multi-Party Relay (the paper's §3.2.4, the
// iCloud Private Relay architecture): two nested HTTP CONNECT tunnels
// run by distinct parties, over real loopback TCP.
//
//	client ──TCP──▶ Relay 1 ──TCP──▶ Relay 2 ──TCP──▶ Origin
//	         CONNECT r2      (spliced bytes)
//	         └──TLS(relay2)──▶ CONNECT origin
//	                └──────TLS(origin)──────▶ HTTP request
//
// Relay 1 sees the client's address and that they use the relay system
// (▲, ⊙) — the inner leg is TLS to relay 2, so the inner CONNECT target
// is invisible to it. Relay 2 terminates that TLS and sees the origin
// host from the CONNECT line (the paper's ⊙/● FQDN leak) but knows the
// client only as a connection from relay 1 (△). The origin serves a
// TLS request arriving from relay 2's address (△, ●).
//
// The linkage handles recorded by the relays are the literal TCP
// 4-tuple endpoint strings: relay 1's dial-side local address IS relay
// 2's observed remote address, so colluding neighbors genuinely hold a
// shared join key while non-adjacent parties do not — the paper's §4.1
// argument emerging from real sockets.
//
// Relay 1 optionally gates access on a bearer token (Private Relay
// authenticates subscribers at the first hop), pluggable so the
// privacypass issuer can supply unlinkable tokens.
package mpr

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"

	"decoupling/internal/ledger"
)

// Entity names matching the paper's table.
const (
	Relay1Name = "Relay 1"
	Relay2Name = "Relay 2"
	OriginName = "Origin"
)

// Errors returned by the client dialer.
var (
	ErrTunnelRefused = errors.New("mpr: tunnel establishment refused")
)

// TokenValidator authorizes access at relay 1; nil means open access.
type TokenValidator func(token string) error

// Relay is one CONNECT-proxy hop. TLS, if non-nil, is terminated on
// accepted connections (used at relay 2, whose clients reach it through
// relay 1's opaque splice).
type Relay struct {
	Name     string
	TLS      *tls.Config
	Validate TokenValidator
	// SourceIP, if set, is the loopback alias the relay binds for its
	// outbound dials (distinct organizations, distinct addresses; also
	// rules out address-string collisions with client sockets).
	SourceIP net.IP
	lg       *ledger.Ledger

	ln       net.Listener
	mu       sync.Mutex
	tunnels  int
	rejected int
	closed   bool
	wg       sync.WaitGroup
}

// NewRelay creates a relay; call Start to begin serving.
func NewRelay(name string, tlsConf *tls.Config, validate TokenValidator, lg *ledger.Ledger) *Relay {
	return &Relay{Name: name, TLS: tlsConf, Validate: validate, lg: lg}
}

// Start listens on a fresh loopback port and serves until Close.
func (r *Relay) Start() (addr string, err error) {
	r.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("mpr: listen: %w", err)
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r.ln.Addr().String(), nil
}

// Close stops the listener and waits for the accept loop to exit. It
// does not wait for open tunnels: they die with their connections.
func (r *Relay) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	err := r.ln.Close()
	r.wg.Wait()
	return err
}

// Tunnels reports how many tunnels were established.
func (r *Relay) Tunnels() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tunnels
}

// Rejected reports how many CONNECTs were refused.
func (r *Relay) Rejected() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rejected
}

func (r *Relay) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go r.handle(conn)
	}
}

func (r *Relay) handle(conn net.Conn) {
	defer conn.Close()
	if r.TLS != nil {
		tconn := tls.Server(conn, r.TLS)
		if err := tconn.Handshake(); err != nil {
			r.reject()
			return
		}
		conn = tconn
	}
	br := bufio.NewReader(conn)
	req, err := http.ReadRequest(br)
	if err != nil {
		r.reject()
		return
	}
	if req.Method != http.MethodConnect {
		fmt.Fprintf(conn, "HTTP/1.1 405 Method Not Allowed\r\n\r\n")
		r.reject()
		return
	}
	if r.Validate != nil {
		tok := strings.TrimPrefix(req.Header.Get("Proxy-Authorization"), "PrivateToken ")
		if err := r.Validate(tok); err != nil {
			fmt.Fprintf(conn, "HTTP/1.1 407 Proxy Authentication Required\r\n\r\n")
			r.reject()
			return
		}
	}
	target := req.Host
	dialer := &net.Dialer{}
	if r.SourceIP != nil {
		dialer.LocalAddr = &net.TCPAddr{IP: r.SourceIP}
	}
	upstream, err := dialer.Dial("tcp", target)
	if err != nil {
		fmt.Fprintf(conn, "HTTP/1.1 502 Bad Gateway\r\n\r\n")
		r.reject()
		return
	}
	defer upstream.Close()

	if r.lg != nil {
		// The observed remote endpoint is both the identity value and a
		// join key; the dial-side local endpoint is the join key shared
		// with the next hop.
		inLeg := conn.RemoteAddr().String()
		outLeg := upstream.LocalAddr().String()
		r.lg.SawIdentity(r.Name, inLeg, inLeg, outLeg)
		r.lg.SawData(r.Name, "connect:"+target, inLeg, outLeg)
	}

	if _, err := fmt.Fprintf(conn, "HTTP/1.1 200 Connection Established\r\n\r\n"); err != nil {
		return
	}
	r.mu.Lock()
	r.tunnels++
	r.mu.Unlock()

	// Splice. Any bytes the client pipelined behind the CONNECT are
	// already buffered in br and must go upstream first.
	done := make(chan struct{}, 2)
	go func() {
		io.Copy(upstream, br)
		if cw, ok := upstream.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		}
		done <- struct{}{}
	}()
	go func() {
		io.Copy(conn, upstream)
		if cw, ok := conn.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}

func (r *Relay) reject() {
	r.mu.Lock()
	r.rejected++
	r.mu.Unlock()
}

// connect issues one CONNECT on an established stream and checks the
// response.
func connect(conn io.ReadWriter, target, token string) error {
	auth := ""
	if token != "" {
		auth = "Proxy-Authorization: PrivateToken " + token + "\r\n"
	}
	if _, err := fmt.Fprintf(conn, "CONNECT %s HTTP/1.1\r\nHost: %s\r\n%s\r\n", target, target, auth); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodConnect})
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: %s", ErrTunnelRefused, resp.Status)
	}
	if br.Buffered() > 0 {
		return errors.New("mpr: unexpected bytes after CONNECT response")
	}
	return nil
}

// DialConfig carries the client's trust anchors and credentials.
type DialConfig struct {
	// Relay2TLS verifies relay 2's certificate on the inner leg.
	Relay2TLS *tls.Config
	// OriginTLS verifies the origin's certificate on the innermost leg;
	// nil speaks plaintext to the origin (exposing the request to relay
	// 2 — the misconfiguration ablation).
	OriginTLS *tls.Config
	// Token is presented to relay 1.
	Token string
	// OnDial, if set, is called with the client's local address after
	// the TCP connection to relay 1 is up and before any request is
	// sent — experiments use it to register classification ground truth
	// without racing the relay's observation.
	OnDial func(localAddr string)
}

// Dial establishes the nested tunnel chain and returns a connection
// speaking directly to the origin (TLS if cfg.OriginTLS is set).
func Dial(relay1Addr, relay2Addr, originAddr string, cfg *DialConfig) (net.Conn, error) {
	if cfg == nil {
		cfg = &DialConfig{}
	}
	raw, err := net.Dial("tcp", relay1Addr)
	if err != nil {
		return nil, fmt.Errorf("mpr: dial relay1: %w", err)
	}
	if cfg.OnDial != nil {
		cfg.OnDial(raw.LocalAddr().String())
	}
	// Hop 1: CONNECT relay2 through relay1.
	if err := connect(raw, relay2Addr, cfg.Token); err != nil {
		raw.Close()
		return nil, fmt.Errorf("mpr: hop1: %w", err)
	}
	// Hop 2: TLS to relay2 inside the tunnel, then CONNECT origin.
	var inner net.Conn = raw
	if cfg.Relay2TLS != nil {
		tconn := tls.Client(raw, cfg.Relay2TLS)
		if err := tconn.Handshake(); err != nil {
			raw.Close()
			return nil, fmt.Errorf("mpr: relay2 tls: %w", err)
		}
		inner = tconn
	}
	if err := connect(inner, originAddr, ""); err != nil {
		raw.Close()
		return nil, fmt.Errorf("mpr: hop2: %w", err)
	}
	// Innermost: TLS to the origin.
	if cfg.OriginTLS != nil {
		tconn := tls.Client(inner, cfg.OriginTLS)
		if err := tconn.Handshake(); err != nil {
			raw.Close()
			return nil, fmt.Errorf("mpr: origin tls: %w", err)
		}
		return tconn, nil
	}
	return inner, nil
}

// Origin is a plain HTTP(S) server observing what origins observe.
type Origin struct {
	Name string
	lg   *ledger.Ledger
	srv  *http.Server
	ln   net.Listener
}

// NewOrigin creates an origin server; if tlsConf is non-nil it serves
// TLS.
func NewOrigin(name string, tlsConf *tls.Config, lg *ledger.Ledger) *Origin {
	return &Origin{Name: name, lg: lg, srv: &http.Server{TLSConfig: tlsConf}}
}

// Start serves on a fresh loopback port.
func (o *Origin) Start() (addr string, err error) {
	o.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	o.srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if o.lg != nil {
			h := r.RemoteAddr
			o.lg.SawIdentity(o.Name, r.RemoteAddr, h)
			o.lg.SawData(o.Name, r.URL.Path, h)
		}
		fmt.Fprintf(w, "origin content for %s", r.URL.Path)
	})
	go func() {
		if o.srv.TLSConfig != nil {
			o.srv.ServeTLS(o.ln, "", "")
		} else {
			o.srv.Serve(o.ln)
		}
	}()
	return o.ln.Addr().String(), nil
}

// Close shuts the origin down.
func (o *Origin) Close() error { return o.srv.Close() }

// Stack is a complete two-hop deployment on loopback, with PKI.
type Stack struct {
	PKI        *testPKI
	Relay1     *Relay
	Relay2     *Relay
	Origin     *Origin
	Relay1Addr string
	Relay2Addr string
	OriginAddr string
}

// NewStack builds, starts, and wires a full MPR deployment. validate
// gates relay 1 (nil for open access).
func NewStack(lg *ledger.Ledger, validate TokenValidator) (*Stack, error) {
	pki, err := newTestPKI()
	if err != nil {
		return nil, err
	}
	relay2Cert, err := pki.Issue("relay2.decoupling.test")
	if err != nil {
		return nil, err
	}
	originCert, err := pki.Issue("origin.decoupling.test")
	if err != nil {
		return nil, err
	}

	s := &Stack{PKI: pki}
	s.Relay1 = NewRelay(Relay1Name, nil, validate, lg)
	s.Relay1.SourceIP = net.IPv4(127, 0, 0, 3)
	if s.Relay1Addr, err = s.Relay1.Start(); err != nil {
		return nil, err
	}
	s.Relay2 = NewRelay(Relay2Name, &tls.Config{Certificates: []tls.Certificate{relay2Cert}}, nil, lg)
	s.Relay2.SourceIP = net.IPv4(127, 0, 0, 4)
	if s.Relay2Addr, err = s.Relay2.Start(); err != nil {
		s.Relay1.Close()
		return nil, err
	}
	s.Origin = NewOrigin(OriginName, &tls.Config{Certificates: []tls.Certificate{originCert}}, lg)
	if s.OriginAddr, err = s.Origin.Start(); err != nil {
		s.Relay1.Close()
		s.Relay2.Close()
		return nil, err
	}
	return s, nil
}

// ClientConfig returns a DialConfig trusting the stack's PKI.
func (s *Stack) ClientConfig(token string, onDial func(string)) *DialConfig {
	return &DialConfig{
		Relay2TLS: &tls.Config{RootCAs: s.PKI.Pool, ServerName: "relay2.decoupling.test"},
		OriginTLS: &tls.Config{RootCAs: s.PKI.Pool, ServerName: "origin.decoupling.test"},
		Token:     token,
		OnDial:    onDial,
	}
}

// Close tears the stack down.
func (s *Stack) Close() {
	s.Relay1.Close()
	s.Relay2.Close()
	s.Origin.Close()
}

// Fetch performs one HTTP GET through the stack and returns the body.
func (s *Stack) Fetch(path, token string, onDial func(string)) (string, error) {
	body, conn, err := s.FetchConn(path, token, onDial)
	if conn != nil {
		conn.Close()
	}
	return body, err
}

// FetchConn is Fetch with the client connection returned still open —
// measurement runs hold connections so ephemeral ports registered as
// client identities cannot be recycled into relay-side dials during the
// run. The caller must close the returned connection.
func (s *Stack) FetchConn(path, token string, onDial func(string)) (string, net.Conn, error) {
	conn, err := Dial(s.Relay1Addr, s.Relay2Addr, s.OriginAddr, s.ClientConfig(token, onDial))
	if err != nil {
		return "", nil, err
	}
	req, err := http.NewRequest(http.MethodGet, "https://origin.decoupling.test"+path, nil)
	if err != nil {
		return "", conn, err
	}
	if err := req.Write(conn); err != nil {
		return "", conn, err
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), req)
	if err != nil {
		return "", conn, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", conn, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", conn, fmt.Errorf("mpr: origin returned %s", resp.Status)
	}
	return string(body), conn, nil
}
