// Package privacypass implements the Privacy Pass protocol of the
// paper's §3.2.1 (Figure 2): a client that has proved legitimacy to a
// trusted Issuer receives unlinkable tokens it can redeem at an Origin
// in place of privacy-unfriendly challenges (CAPTCHAs, login prompts,
// tracking cookies).
//
// Tokens here are the publicly verifiable type: blind RSA signatures
// over the token envelope in internal/dcrypto/token. The decoupling is
// exactly the paper's: the Issuer authenticates the client (▲) but
// signs a blinded message (⊙) and never learns the origin; the Origin
// sees the request (●) and a token that is cryptographically unlinkable
// to any issuance (△).
//
// Issuer, Origin and Client are plain types that call one another
// directly. E3 reproduces Figure 2 through these calls, and E6 obtains
// its relay access tokens the same way.
package privacypass

import (
	"crypto/rsa"
	"encoding/base64"
	"errors"
	"fmt"
	"sync"

	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/dcrypto/token"
	"decoupling/internal/ledger"
)

// TokenTypeBlindRSA is the token type code for publicly verifiable
// (blind RSA) tokens, mirroring the Privacy Pass registry value.
const TokenTypeBlindRSA uint16 = 2

// Entity names used in ledger observations, matching the paper table.
const (
	IssuerName = "Issuer"
	OriginName = "Origin"
)

// Errors returned by the protocol.
var (
	ErrNotAuthenticated = errors.New("privacypass: client not authenticated to issuer")
	ErrRateLimited      = errors.New("privacypass: issuance rate limit exceeded")
	ErrBadToken         = errors.New("privacypass: token verification failed")
	ErrWrongChallenge   = errors.New("privacypass: token bound to a different challenge")
)

// Issuer authenticates clients and blind-signs tokens. It learns who
// asks but not what the tokens are for.
type Issuer struct {
	Name string
	key  *rsa.PrivateKey
	lg   *ledger.Ledger

	// PerClientLimit caps tokens issued per authenticated client; 0
	// means unlimited. Rate limiting is the issuer's anti-abuse lever —
	// it needs client identity for this, which is why the issuer is ▲.
	PerClientLimit int

	mu       sync.Mutex
	accounts map[string]bool
	issued   map[string]int
	total    int
}

// NewIssuer creates an issuer that signs tokens with key, a key from
// blindrsa.GenerateKey. lg may be nil (no instrumentation).
func NewIssuer(name string, key *rsa.PrivateKey, lg *ledger.Ledger) *Issuer {
	return &Issuer{
		Name:     name,
		key:      key,
		lg:       lg,
		accounts: map[string]bool{},
		issued:   map[string]int{},
	}
}

// PublicKey returns the token verification key origins trust.
func (is *Issuer) PublicKey() *rsa.PublicKey { return &is.key.PublicKey }

// Enroll registers a client as legitimate (the paper's "clients that are
// able to successfully prove that they are legitimate").
func (is *Issuer) Enroll(clientID string) {
	is.mu.Lock()
	defer is.mu.Unlock()
	is.accounts[clientID] = true
}

// Issue blind-signs one blinded token request for an authenticated
// client.
func (is *Issuer) Issue(clientID string, blinded []byte) ([]byte, error) {
	is.mu.Lock()
	if !is.accounts[clientID] {
		is.mu.Unlock()
		return nil, ErrNotAuthenticated
	}
	if is.PerClientLimit > 0 && is.issued[clientID] >= is.PerClientLimit {
		is.mu.Unlock()
		return nil, ErrRateLimited
	}
	is.issued[clientID]++
	is.total++
	n := is.total
	is.mu.Unlock()

	if is.lg != nil {
		h := fmt.Sprintf("issuance-%d", n)
		is.lg.SawIdentity(IssuerName, clientID, h)
		is.lg.SawData(IssuerName, "blinded:"+base64.StdEncoding.EncodeToString(blinded[:8]), h)
	}
	return blindrsa.BlindSign(is.key, blinded)
}

// Issued returns the number of tokens issued to a client.
func (is *Issuer) Issued(clientID string) int {
	is.mu.Lock()
	defer is.mu.Unlock()
	return is.issued[clientID]
}

// Origin challenges clients and accepts tokens in lieu of
// identification. It learns requests but only anonymous presenters.
type Origin struct {
	Name       string
	IssuerName string
	issuerKey  *rsa.PublicKey
	lg         *ledger.Ledger
	spent      *token.SpendCache

	mu         sync.Mutex
	challenges map[[32]byte]bool
	served     int
}

// NewOrigin creates an origin trusting the given issuer key.
func NewOrigin(name, issuerName string, issuerKey *rsa.PublicKey, lg *ledger.Ledger) *Origin {
	return &Origin{
		Name:       name,
		IssuerName: issuerName,
		issuerKey:  issuerKey,
		lg:         lg,
		spent:      token.NewSpendCache(),
		challenges: map[[32]byte]bool{},
	}
}

// Challenge mints a fresh token challenge for this origin.
func (o *Origin) Challenge() (*token.Challenge, error) {
	c, err := token.NewChallenge(TokenTypeBlindRSA, o.IssuerName, o.Name)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.challenges[c.Digest()] = true
	o.mu.Unlock()
	return c, nil
}

// Redeem validates a token presented by an anonymous client (identified
// to the origin only by presenterAddr, e.g. an exit or relay address)
// requesting resource. On success the resource is served.
func (o *Origin) Redeem(presenterAddr string, tok *token.Token, resource string) error {
	o.mu.Lock()
	known := o.challenges[tok.ChallengeDigest]
	o.mu.Unlock()
	if !known {
		return ErrWrongChallenge
	}
	if err := blindrsa.Verify(o.issuerKey, tok.SignedMessage(), tok.Signature); err != nil {
		return ErrBadToken
	}
	if err := o.spent.Redeem(tok); err != nil {
		return err
	}
	if o.lg != nil {
		h := "redemption-" + base64.StdEncoding.EncodeToString(tok.Nonce[:8])
		o.lg.SawIdentity(OriginName, presenterAddr, h)
		o.lg.SawData(OriginName, resource, h)
	}
	o.mu.Lock()
	o.served++
	o.mu.Unlock()
	return nil
}

// Served reports how many tokened requests the origin has accepted.
func (o *Origin) Served() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.served
}

// Client obtains tokens from an issuer and redeems them at origins.
type Client struct {
	ID        string
	issuerKey *rsa.PublicKey
}

// NewClient creates a client that trusts issuerKey for finalization.
func NewClient(id string, issuerKey *rsa.PublicKey) *Client {
	return &Client{ID: id, issuerKey: issuerKey}
}

// ObtainToken runs the blind issuance round trip for a challenge: it
// blinds a fresh token, has is sign it, and finalizes the signature.
func (c *Client) ObtainToken(ch *token.Challenge, is *Issuer) (*token.Token, error) {
	t, err := token.NewToken(ch)
	if err != nil {
		return nil, err
	}
	blinded, st, err := blindrsa.Blind(c.issuerKey, t.SignedMessage())
	if err != nil {
		return nil, err
	}
	blindSig, err := is.Issue(c.ID, blinded)
	if err != nil {
		return nil, err
	}
	sig, err := blindrsa.Finalize(c.issuerKey, st, blindSig)
	if err != nil {
		return nil, err
	}
	t.Signature = sig
	return t, nil
}
