// Package token defines the Privacy Pass token envelope: challenges,
// tokens, their wire encodings, and a double-spend cache. It follows
// the shape of the Privacy Pass architecture draft (the paper's [12]):
// an origin issues a TokenChallenge, the client obtains a Token bound to
// that challenge from an issuer, and redeems it at the origin.
//
// The cryptographic binding (blind RSA in this module) lives in the
// privacypass package; this package is deliberately signature-agnostic
// so the same envelope serves Privacy Pass and PGPP's oblivious
// authentication.
package token

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// NonceSize is the size of token nonces in bytes.
const NonceSize = 32

// Errors returned by envelope operations.
var (
	ErrTruncated = errors.New("token: truncated encoding")
	ErrSpent     = errors.New("token: already redeemed")
)

// Challenge is an origin's request for proof. TokenType identifies the
// signature scheme (2 = publicly verifiable / blind RSA, per the
// Privacy Pass registries); Issuer names the trusted issuer; OriginInfo
// binds the token to this origin.
type Challenge struct {
	TokenType  uint16
	Issuer     string
	OriginInfo string
	Nonce      [NonceSize]byte
}

// NewChallenge creates a challenge with a fresh nonce.
func NewChallenge(tokenType uint16, issuer, originInfo string) (*Challenge, error) {
	c := &Challenge{TokenType: tokenType, Issuer: issuer, OriginInfo: originInfo}
	if _, err := rand.Read(c.Nonce[:]); err != nil {
		return nil, fmt.Errorf("token: challenge nonce: %w", err)
	}
	return c, nil
}

// Marshal encodes the challenge.
func (c *Challenge) Marshal() []byte {
	var b bytes.Buffer
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], c.TokenType)
	b.Write(u16[:])
	writeLV(&b, []byte(c.Issuer))
	writeLV(&b, []byte(c.OriginInfo))
	b.Write(c.Nonce[:])
	return b.Bytes()
}

// Digest returns the challenge digest tokens commit to.
func (c *Challenge) Digest() [32]byte { return sha256.Sum256(c.Marshal()) }

// Token is a redeemable proof: a fresh client nonce, the digest of the
// challenge it answers, and the issuer's signature over both.
type Token struct {
	TokenType       uint16
	Nonce           [NonceSize]byte
	ChallengeDigest [32]byte
	Signature       []byte
}

// NewToken creates an unsigned token for a challenge with a fresh nonce.
func NewToken(c *Challenge) (*Token, error) {
	t := &Token{TokenType: c.TokenType, ChallengeDigest: c.Digest()}
	if _, err := rand.Read(t.Nonce[:]); err != nil {
		return nil, fmt.Errorf("token: token nonce: %w", err)
	}
	return t, nil
}

// SignedMessage returns the byte string the issuer signs: everything
// except the signature itself.
func (t *Token) SignedMessage() []byte {
	var b bytes.Buffer
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], t.TokenType)
	b.Write(u16[:])
	b.Write(t.Nonce[:])
	b.Write(t.ChallengeDigest[:])
	return b.Bytes()
}

// Marshal encodes the complete token.
func (t *Token) Marshal() []byte {
	var b bytes.Buffer
	b.Write(t.SignedMessage())
	writeLV(&b, t.Signature)
	return b.Bytes()
}

// Unmarshal decodes a token.
func Unmarshal(data []byte) (*Token, error) {
	const fixed = 2 + NonceSize + 32
	if len(data) < fixed {
		return nil, ErrTruncated
	}
	t := &Token{TokenType: binary.BigEndian.Uint16(data)}
	copy(t.Nonce[:], data[2:])
	copy(t.ChallengeDigest[:], data[2+NonceSize:])
	sig, rest, err := readLV(data[fixed:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("token: %d trailing bytes", len(rest))
	}
	t.Signature = sig
	return t, nil
}

// ID returns a stable identifier for double-spend tracking.
func (t *Token) ID() [32]byte { return sha256.Sum256(t.SignedMessage()) }

// SpendCache tracks redeemed token IDs.
type SpendCache struct {
	mu   sync.Mutex
	seen map[[32]byte]bool
}

// NewSpendCache returns an empty cache.
func NewSpendCache() *SpendCache { return &SpendCache{seen: map[[32]byte]bool{}} }

// Redeem marks a token spent, returning ErrSpent if it already was.
func (s *SpendCache) Redeem(t *Token) error {
	id := t.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[id] {
		return ErrSpent
	}
	s.seen[id] = true
	return nil
}

// Len reports how many tokens have been redeemed.
func (s *SpendCache) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

func writeLV(b *bytes.Buffer, v []byte) {
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(v)))
	b.Write(u16[:])
	b.Write(v)
}

func readLV(data []byte) (v, rest []byte, err error) {
	if len(data) < 2 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(data))
	if len(data) < 2+n {
		return nil, nil, ErrTruncated
	}
	return data[2 : 2+n], data[2+n:], nil
}
