// Package vpn implements the paper's §3.3 cautionary tale: a
// centralized VPN / forward-proxy service. The client's traffic is
// encrypted to the VPN server (protecting it from the local network),
// but the VPN terminates that encryption and forwards requests itself —
// a single trusted intermediary that sees all user activity bundled
// with user identity: (▲, ●).
//
// The implementation is a real loopback HTTP forward proxy: clients
// send absolute-URI requests through it and the proxy dials origins on
// their behalf, observing exactly what a commercial VPN operator's logs
// would hold. It exists so that the experiments can measure the
// coupled tuple and the degree-1 verdict against a live system rather
// than assert them.
package vpn

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"

	"decoupling/internal/ledger"
)

// Entity names matching the paper's table.
const (
	ServerName = "VPN Server"
	OriginName = "Origin"
)

// ErrBadGateway is returned when the proxy cannot reach the origin.
var ErrBadGateway = errors.New("vpn: origin unreachable")

// Server is the centralized proxy.
type Server struct {
	Name string
	lg   *ledger.Ledger

	ln        net.Listener
	srv       *http.Server
	transport *http.Transport
}

// NewServer creates a VPN server. Its outbound dials bind the loopback
// alias 127.0.0.2, giving the operator a source address distinct from
// every client's 127.0.0.1 — as distinct organizations have — and
// making address-string collisions between entities impossible.
func NewServer(lg *ledger.Ledger) *Server {
	dialer := &net.Dialer{LocalAddr: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 2)}}
	return &Server{
		Name: ServerName, lg: lg,
		transport: &http.Transport{DialContext: dialer.DialContext},
	}
}

// Start serves on a fresh loopback port.
func (s *Server) Start() (addr string, err error) {
	s.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.srv = &http.Server{Handler: http.HandlerFunc(s.proxy)}
	go s.srv.Serve(s.ln)
	return s.ln.Addr().String(), nil
}

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

// proxy handles a forward-proxy request (absolute URI). This is where
// the coupling happens: one handler, one log line, both who and what.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request) {
	if !r.URL.IsAbs() {
		http.Error(w, "vpn: absolute-URI proxy request required", http.StatusBadRequest)
		return
	}
	if s.lg != nil {
		// One session record holds the client address AND the full
		// request — the single locus of observation.
		h := r.RemoteAddr
		s.lg.SawIdentity(s.Name, r.RemoteAddr, h)
		s.lg.SawData(s.Name, r.URL.String(), h, "origin-conn:"+r.URL.Host)
	}
	outReq, err := http.NewRequest(r.Method, r.URL.String(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	outReq.Header = r.Header.Clone()
	resp, err := s.transport.RoundTrip(outReq)
	if err != nil {
		http.Error(w, ErrBadGateway.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// Origin is a plain HTTP origin server with observation.
type Origin struct {
	Name string
	lg   *ledger.Ledger
	srv  *http.Server
	ln   net.Listener
}

// NewOrigin creates an origin.
func NewOrigin(lg *ledger.Ledger) *Origin {
	return &Origin{Name: OriginName, lg: lg}
}

// Start serves on a fresh loopback port.
func (o *Origin) Start() (addr string, err error) {
	o.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	o.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if o.lg != nil {
			h := "origin-conn:" + o.ln.Addr().String()
			o.lg.SawIdentity(o.Name, r.RemoteAddr, h)
			o.lg.SawData(o.Name, "http://"+o.ln.Addr().String()+r.URL.Path, h)
		}
		fmt.Fprintf(w, "origin content for %s", r.URL.Path)
	})}
	go o.srv.Serve(o.ln)
	return o.ln.Addr().String(), nil
}

// Close shuts the origin down.
func (o *Origin) Close() error { return o.srv.Close() }

// FetchConn performs one GET of originURL through the VPN at vpnAddr
// and returns the body with the client connection still open. onDial
// receives the client's local address before the request is sent
// (classification ground truth hook). Measurement runs hold these
// connections until the run ends so the OS cannot recycle a client's
// ephemeral port into a server-side dial, which would contaminate
// address-based classification ground truth. The caller owns the
// returned connection (non-nil even on some error paths) and must
// close it.
func FetchConn(vpnAddr, originURL string, onDial func(localAddr string)) (string, net.Conn, error) {
	proxyURL, err := url.Parse("http://" + vpnAddr)
	if err != nil {
		return "", nil, err
	}
	conn, err := net.Dial("tcp", proxyURL.Host)
	if err != nil {
		return "", nil, err
	}
	if onDial != nil {
		onDial(conn.LocalAddr().String())
	}
	req, err := http.NewRequest(http.MethodGet, originURL, nil)
	if err != nil {
		return "", conn, err
	}
	// Absolute-URI request line (WriteProxy) marks it a proxy request.
	if err := req.WriteProxy(conn); err != nil {
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
		return "", conn, fmt.Errorf("vpn: fetch returned %s", resp.Status)
	}
	return string(body), conn, nil
}
