// Package blindrsa implements Chaum-style blind RSA signatures, the
// primitive behind the paper's §3.1.1 digital-cash analysis and the
// publicly verifiable token type of Privacy Pass (§3.2.1).
//
// The construction is the classic one (Chaum 1983), framed the way
// RSABSSA (RFC 9474) frames it:
//
//	Blind:     m = H(msg); blinded = m * r^e mod n, r random in Z_n*
//	BlindSign: s' = blinded^d mod n                  (signer, via CRT)
//	Finalize:  s  = s' * r^-1 mod n                  (client)
//	Verify:    s^e mod n == H(msg)
//
// H is a full-domain hash built by expanding SHA-256 output with HKDF to
// the modulus size and reducing mod n. This is the FDH variant of RSABSSA
// rather than the PSS variant: deterministic, simple, and sufficient for
// the unlinkability property the paper's analysis depends on — the signer
// sees only blinded = m*r^e, which is uniformly distributed in Z_n* and
// therefore statistically independent of m.
//
// The signer computes blinded^d in Chinese Remainder Theorem form (two
// half-width exponentiations, mod p and mod q) at under half the cost of
// the full-width one, and checks s'^e == blinded before releasing s', as
// crypto/rsa does, so that a faulty CRT half never escapes as a signature.
//
// Unlinkability is the load-bearing property for decoupling: the Signer
// learns the client's identity (it authenticates them) but nothing about
// the message being signed, and the Verifier learns the message but
// cannot link it to any signing interaction.
package blindrsa

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"

	"decoupling/internal/dcrypto/hkdf"
)

var (
	// ErrVerification is returned when a signature does not verify.
	ErrVerification = errors.New("blindrsa: signature verification failed")
	// ErrMessageRange is returned for malformed blinded values.
	ErrMessageRange = errors.New("blindrsa: value out of range for modulus")
	// ErrNoCRT is returned by BlindSign for a key that is not a two-prime
	// key with its CRT values (Precomputed.Dp, Dq, Qinv) filled in, as
	// GenerateKey's keys always are.
	ErrNoCRT = errors.New("blindrsa: private key lacks two primes and CRT values")
	// ErrSignFault is returned by BlindSign when the CRT result fails the
	// s^e == blinded check, e.g. because a CRT value is corrupt.
	ErrSignFault = errors.New("blindrsa: CRT signature failed its s^e check")
)

// GenerateKey creates a two-prime signer key pair, CRT values included,
// of the given modulus size in bits. Every caller in this module uses
// 1024 bits. Even so, blind signing is the experiment suite's largest
// CPU cost, about half of it and nearly all in E5's PGPP gateways, and
// one generation costs as much as about 150 signatures, so a run of the
// experiments generates one key and all its signers share it.
func GenerateKey(bits int) (*rsa.PrivateKey, error) {
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("blindrsa: generating key: %w", err)
	}
	return key, nil
}

// fdh maps msg to an integer in [0, n) via SHA-256 + HKDF expansion,
// giving a full-domain hash for the modulus.
func fdh(msg []byte, n *big.Int) *big.Int {
	digest := sha256.Sum256(msg)
	// Expand to modulus length + 16 bytes so the bias from reduction is
	// negligible (< 2^-128).
	expanded := hkdf.Key(nil, digest[:], []byte("blindrsa fdh"), (n.BitLen()+7)/8+16)
	return new(big.Int).Mod(new(big.Int).SetBytes(expanded), n)
}

// State carries the client's secrets between Blind and Finalize.
type State struct {
	rInv *big.Int // r^-1 mod n
	m    *big.Int // H(msg)
	n    *big.Int
}

// Blind hashes msg and blinds it for the signer. The returned blinded
// value reveals nothing about msg.
func Blind(pub *rsa.PublicKey, msg []byte) (blinded []byte, st *State, err error) {
	n := pub.N
	m := fdh(msg, n)
	var r, rInv *big.Int
	for {
		r, err = rand.Int(rand.Reader, n)
		if err != nil {
			return nil, nil, fmt.Errorf("blindrsa: sampling blind: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		rInv = new(big.Int).ModInverse(r, n)
		if rInv != nil {
			break
		}
	}
	e := big.NewInt(int64(pub.E))
	rE := new(big.Int).Exp(r, e, n)
	b := new(big.Int).Mul(m, rE)
	b.Mod(b, n)
	return b.FillBytes(make([]byte, (n.BitLen()+7)/8)), &State{rInv: rInv, m: m, n: n}, nil
}

// BlindSign computes the signer's operation blinded^d mod n on a blinded
// value. The signer cannot recover the underlying message from blinded.
//
// The exponentiation runs in CRT form:
//
//	m1 = b^Dp mod p,  m2 = b^Dq mod q,  s = m2 + q*((m1 - m2)*Qinv mod p)
//
// and s is released only if s^e == b mod n.
func BlindSign(priv *rsa.PrivateKey, blinded []byte) ([]byte, error) {
	pre := priv.Precomputed
	if len(priv.Primes) != 2 || pre.Dp == nil || pre.Dq == nil || pre.Qinv == nil {
		return nil, ErrNoCRT
	}
	n := priv.N
	b := new(big.Int).SetBytes(blinded)
	if b.Cmp(n) >= 0 {
		return nil, ErrMessageRange
	}
	p, q := priv.Primes[0], priv.Primes[1]
	m1 := new(big.Int).Mod(b, p)
	m1.Exp(m1, pre.Dp, p)
	m2 := new(big.Int).Mod(b, q)
	m2.Exp(m2, pre.Dq, q)
	s := m1.Sub(m1, m2)
	s.Mul(s, pre.Qinv).Mod(s, p)
	s.Mul(s, q).Add(s, m2)
	check := new(big.Int).Exp(s, big.NewInt(int64(priv.E)), n)
	if check.Cmp(b) != 0 {
		return nil, ErrSignFault
	}
	return s.FillBytes(make([]byte, (n.BitLen()+7)/8)), nil
}

// Finalize unblinds the signer's response, yielding a standard signature
// on the original message, and verifies it before returning.
func Finalize(pub *rsa.PublicKey, st *State, blindSig []byte) ([]byte, error) {
	n := pub.N
	sPrime := new(big.Int).SetBytes(blindSig)
	if sPrime.Cmp(n) >= 0 {
		return nil, ErrMessageRange
	}
	s := new(big.Int).Mul(sPrime, st.rInv)
	s.Mod(s, n)
	sig := s.FillBytes(make([]byte, (n.BitLen()+7)/8))
	// Check s^e == m before handing the signature out; a corrupt signer
	// must be detected by the client, not by a later verifier.
	check := new(big.Int).Exp(s, big.NewInt(int64(pub.E)), n)
	if check.Cmp(st.m) != 0 {
		return nil, ErrVerification
	}
	return sig, nil
}

// Verify checks an unblinded signature against msg.
func Verify(pub *rsa.PublicKey, msg, sig []byte) error {
	n := pub.N
	s := new(big.Int).SetBytes(sig)
	if s.Cmp(n) >= 0 {
		return ErrMessageRange
	}
	check := new(big.Int).Exp(s, big.NewInt(int64(pub.E)), n)
	if check.Cmp(fdh(msg, n)) != 0 {
		return ErrVerification
	}
	return nil
}
