// Package pgpp implements Pretty Good Phone Privacy (the paper's
// §3.2.3): a cellular architecture in which billing and authentication
// are decoupled from connectivity and mobility.
//
// In the baseline cellular design the core (NGC) authenticates
// subscribers by a permanent IMSI tied to a billing account, so the
// operator's ordinary location-management machinery doubles as a
// per-person tracking system. PGPP moves billing and authentication to
// an external gateway (PGPP-GW) that issues blind-signed attach tokens:
// the gateway knows who pays (▲_H) but never sees mobility; the core
// verifies tokens and serves connectivity under ephemeral network
// identities (△_N) that can be shuffled per policy, so its location log
// no longer names anyone.
//
// The simulation models a cell grid, seeded random-walk mobility, the
// attach/location-update machinery, and the identifier-visibility
// consequences. The tracking adversary in Evaluate scores how much of a
// user's trajectory the core's own log reconstructs — ~1.0 with
// permanent IMSIs, collapsing toward 1/#attaches with per-attach
// shuffling.
package pgpp

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"

	"decoupling/internal/core"
	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/ledger"
)

// Entity names matching the paper's table.
const (
	GatewayName = "PGPP-GW"
	CoreName    = "NGC"
)

// ShufflePolicy controls how often a user's network identity changes.
type ShufflePolicy int

// Policies, in increasing privacy order.
const (
	// ShuffleNever is the baseline: the permanent IMSI is used for every
	// attach.
	ShuffleNever ShufflePolicy = iota
	// ShuffleDaily rotates the network identity every epoch (a "day" of
	// simulation steps).
	ShuffleDaily
	// ShufflePerAttach rotates on every attach.
	ShufflePerAttach
)

// String names the policy.
func (p ShufflePolicy) String() string {
	switch p {
	case ShuffleNever:
		return "never"
	case ShuffleDaily:
		return "daily"
	case ShufflePerAttach:
		return "per-attach"
	default:
		return fmt.Sprintf("ShufflePolicy(%d)", int(p))
	}
}

// Errors returned by the protocol.
var (
	ErrUnknownSubscriber = errors.New("pgpp: unknown subscriber")
	ErrBadToken          = errors.New("pgpp: invalid attach token")
	ErrTokenReused       = errors.New("pgpp: attach token already spent")
	ErrNotAttached       = errors.New("pgpp: device not attached")
	ErrNoBalance         = errors.New("pgpp: account has no token balance")
)

// Gateway is the PGPP-GW: billing and blind token issuance. It learns
// the human identity (who pays) and how many tokens they buy — never
// where they go.
type Gateway struct {
	key *rsa.PrivateKey
	lg  *ledger.Ledger

	mu       sync.Mutex
	accounts map[string]int // token balance per account
	issued   int
}

// NewGateway creates a gateway that signs tokens with key, a key from
// blindrsa.GenerateKey. Gateways may share a key: signing only reads it.
func NewGateway(key *rsa.PrivateKey, lg *ledger.Ledger) *Gateway {
	return &Gateway{key: key, lg: lg, accounts: map[string]int{}}
}

// PublicKey returns the token-verification key the core trusts.
func (g *Gateway) PublicKey() *rsa.PublicKey { return &g.key.PublicKey }

// Subscribe provisions an account with a prepaid token balance —
// billing, decoupled from connectivity.
func (g *Gateway) Subscribe(account string, tokens int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.accounts[account] += tokens
}

// IssueToken blind-signs one attach token for the paying account.
func (g *Gateway) IssueToken(account string, blinded []byte) ([]byte, error) {
	g.mu.Lock()
	bal, ok := g.accounts[account]
	if !ok {
		g.mu.Unlock()
		return nil, ErrUnknownSubscriber
	}
	if bal < 1 {
		g.mu.Unlock()
		return nil, ErrNoBalance
	}
	g.accounts[account]--
	g.issued++
	n := g.issued
	g.mu.Unlock()

	if g.lg != nil {
		h := fmt.Sprintf("billing-%d", n)
		g.lg.SawIdentity(GatewayName, account, h)
		g.lg.SawData(GatewayName, "token-issuance", h)
	}
	return blindrsa.BlindSign(g.key, blinded)
}

// AttachToken is a spendable attach credential: a random serial with
// the gateway's blind signature.
type AttachToken struct {
	Serial []byte
	Sig    []byte
}

// LocationEvent is one row of the core's location-management log: a
// network identity seen at a cell at a step. This log is exactly the
// artifact the paper says can be "easily tracked (and sold)".
type LocationEvent struct {
	NetID string
	Cell  int
	Step  int
}

// Core is the NGC: attach and mobility. In PGPP mode it verifies
// gateway tokens; in baseline mode it authenticates permanent IMSIs
// against its subscriber database (and, in the bundled-billing baseline,
// knows the owning account).
type Core struct {
	PGPP       bool
	gatewayKey *rsa.PublicKey
	lg         *ledger.Ledger

	mu          sync.Mutex
	subscribers map[string]string // imsi -> account (baseline only)
	spent       map[string]bool
	attached    map[string]bool // netIDs with a recorded presence
	log         []LocationEvent
}

// NewCore creates a core. gatewayKey is required in PGPP mode.
func NewCore(pgppMode bool, gatewayKey *rsa.PublicKey, lg *ledger.Ledger) *Core {
	return &Core{
		PGPP: pgppMode, gatewayKey: gatewayKey, lg: lg,
		subscribers: map[string]string{},
		spent:       map[string]bool{},
		attached:    map[string]bool{},
	}
}

// Provision registers a permanent IMSI for the baseline (non-PGPP)
// flow, bound to its billing account — the coupling PGPP removes.
func (c *Core) Provision(imsi, account string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subscribers[imsi] = account
}

// Attach admits a device under netID at a cell. In PGPP mode the
// credential is an attach token; in baseline mode netID must be a
// provisioned IMSI and the token is ignored.
func (c *Core) Attach(netID string, tok *AttachToken, cell, step int) error {
	if c.PGPP {
		if tok == nil {
			return ErrBadToken
		}
		if err := blindrsa.Verify(c.gatewayKey, tok.Serial, tok.Sig); err != nil {
			return ErrBadToken
		}
		serial := hex.EncodeToString(tok.Serial)
		c.mu.Lock()
		if c.spent[serial] {
			c.mu.Unlock()
			return ErrTokenReused
		}
		c.spent[serial] = true
		c.mu.Unlock()
	} else {
		c.mu.Lock()
		account, ok := c.subscribers[netID]
		c.mu.Unlock()
		if !ok {
			return ErrUnknownSubscriber
		}
		if c.lg != nil {
			// Bundled billing: the baseline core knows who owns the IMSI.
			c.lg.Saw(CoreName, core.Identity, account, "attach:"+netID)
		}
	}
	c.recordPresence(netID, cell, step)
	return nil
}

// Update processes a mobility event (handover / tracking-area update).
func (c *Core) Update(netID string, cell, step int) error {
	c.mu.Lock()
	attached := c.attached[netID]
	c.mu.Unlock()
	if !attached {
		return ErrNotAttached
	}
	c.recordPresence(netID, cell, step)
	return nil
}

func (c *Core) recordPresence(netID string, cell, step int) {
	c.mu.Lock()
	c.attached[netID] = true
	c.log = append(c.log, LocationEvent{NetID: netID, Cell: cell, Step: step})
	c.mu.Unlock()
	if c.lg != nil {
		h := "attach:" + netID
		c.lg.SawIdentity(CoreName, netID, h)
		c.lg.SawData(CoreName, fmt.Sprintf("presence:%d@%d", cell, step), h)
	}
}

// Log returns a copy of the location-management log.
func (c *Core) Log() []LocationEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]LocationEvent(nil), c.log...)
}

// Device is one subscriber's handset + SIM.
type Device struct {
	Account string // human/billing identity (▲_H)
	IMSI    string // permanent identity (▲_N when exposed)
	Policy  ShufflePolicy
	// EpochLen is the pseudonym lifetime in steps for ShuffleDaily.
	EpochLen int

	gw        *Gateway
	core      *Core
	rng       *mrand.Rand
	netID     string
	lastEpoch int
	tokens    []*AttachToken
}

// NewDevice provisions a device. In PGPP mode it pre-purchases tokens
// from the gateway; in baseline mode it registers its IMSI with the
// core, and gw may be nil.
func NewDevice(account string, policy ShufflePolicy, gw *Gateway, c *Core, rng *mrand.Rand, prepaid int) (*Device, error) {
	imsiBuf := make([]byte, 8)
	if _, err := rand.Read(imsiBuf); err != nil {
		return nil, fmt.Errorf("pgpp: imsi: %w", err)
	}
	d := &Device{
		Account: account,
		IMSI:    "imsi-" + hex.EncodeToString(imsiBuf),
		Policy:  policy,
		gw:      gw, core: c, rng: rng,
	}
	if c.PGPP {
		gw.Subscribe(account, prepaid)
		for i := 0; i < prepaid; i++ {
			tok, err := d.buyToken()
			if err != nil {
				return nil, err
			}
			d.tokens = append(d.tokens, tok)
		}
	} else {
		c.Provision(d.IMSI, account)
	}
	return d, nil
}

// buyToken runs the blind issuance round trip with the gateway.
func (d *Device) buyToken() (*AttachToken, error) {
	serial := make([]byte, 32)
	if _, err := rand.Read(serial); err != nil {
		return nil, fmt.Errorf("pgpp: token serial: %w", err)
	}
	blinded, st, err := blindrsa.Blind(d.gw.PublicKey(), serial)
	if err != nil {
		return nil, err
	}
	blindSig, err := d.gw.IssueToken(d.Account, blinded)
	if err != nil {
		return nil, err
	}
	sig, err := blindrsa.Finalize(d.gw.PublicKey(), st, blindSig)
	if err != nil {
		return nil, err
	}
	return &AttachToken{Serial: serial, Sig: sig}, nil
}

// NetID returns the identity currently presented to the core.
func (d *Device) NetID() string { return d.netID }

// Attach joins the network at a cell, choosing the network identity
// according to the shuffle policy: ShuffleNever keeps one identity
// forever (the baseline IMSI, or in PGPP mode one static pseudonym),
// ShuffleDaily rotates every EpochLen steps, ShufflePerAttach rotates on
// every attach.
func (d *Device) Attach(cell, step int) error {
	var tok *AttachToken
	if d.core.PGPP {
		if len(d.tokens) == 0 {
			t, err := d.buyToken()
			if err != nil {
				return err
			}
			d.tokens = append(d.tokens, t)
		}
		tok = d.tokens[0]
		d.tokens = d.tokens[1:]
		switch d.Policy {
		case ShufflePerAttach:
			d.netID = d.freshPseudonym()
		case ShuffleDaily:
			epochLen := d.EpochLen
			if epochLen <= 0 {
				epochLen = 1
			}
			epoch := step / epochLen
			if d.netID == "" || epoch != d.lastEpoch {
				d.netID = d.freshPseudonym()
				d.lastEpoch = epoch
			}
		default: // ShuffleNever: one static pseudonym
			if d.netID == "" {
				d.netID = d.freshPseudonym()
			}
		}
	} else {
		d.netID = d.IMSI
	}
	return d.core.Attach(d.netID, tok, cell, step)
}

func (d *Device) freshPseudonym() string {
	return fmt.Sprintf("tmp-%08x%08x", d.rng.Uint32(), d.rng.Uint32())
}

// Move reports a handover to the core.
func (d *Device) Move(cell, step int) error {
	return d.core.Update(d.netID, cell, step)
}
