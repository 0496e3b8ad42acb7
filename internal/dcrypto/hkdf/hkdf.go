// Package hkdf implements the HMAC-based Extract-and-Expand Key
// Derivation Function (HKDF) from RFC 5869, instantiated with SHA-256.
//
// It is the key-schedule workhorse for the HPKE implementation in
// internal/dcrypto/hpke and is written against the standard library only
// (crypto/sha256). HMAC (RFC 2104) is computed here rather than with
// crypto/hmac: one SHA-256 digest serves a call's inner and outer hashes
// and every block of an Expand, and digests are recycled across calls,
// so a call allocates only its output, however many blocks it derives.
package hkdf

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
)

// Size is the output size in bytes of the underlying hash (SHA-256).
const Size = sha256.Size

// MaxOutput is the maximum number of bytes Expand can produce
// (255 * HashLen per RFC 5869 §2.3).
const MaxOutput = 255 * Size

// mac computes HMAC-SHA256 under one key with a single digest.
type mac struct {
	h          hash.Hash
	ipad, opad [sha256.BlockSize]byte
	inner      [Size]byte
	// ctr is Expand's block counter, held here so that writing it to
	// the digest allocates nothing.
	ctr [1]byte
}

// macs recycles macs, digest included, across calls, so a call's only
// allocation is its output. A recycled mac keeps its last key's pads,
// as garbage would until reused.
var macs = sync.Pool{New: func() any { return &mac{h: sha256.New()} }}

// getMAC returns a mac keyed with key; put it back in macs when done.
func getMAC(key []byte) *mac {
	m := macs.Get().(*mac)
	if len(key) > sha256.BlockSize {
		m.h.Reset()
		m.h.Write(key)
		key = m.h.Sum(m.inner[:0])
	}
	m.ipad, m.opad = [sha256.BlockSize]byte{}, [sha256.BlockSize]byte{}
	copy(m.ipad[:], key)
	copy(m.opad[:], key)
	for i := range m.ipad {
		m.ipad[i] ^= 0x36
		m.opad[i] ^= 0x5c
	}
	m.ctr[0] = 0
	return m
}

// sum appends HMAC(key, msg) to dst, where msg is the concatenation of
// parts.
func (m *mac) sum(dst []byte, parts ...[]byte) []byte {
	m.h.Reset()
	m.h.Write(m.ipad[:])
	for _, p := range parts {
		m.h.Write(p)
	}
	inner := m.h.Sum(m.inner[:0])
	m.h.Reset()
	m.h.Write(m.opad[:])
	m.h.Write(inner)
	return m.h.Sum(dst)
}

// Extract performs the HKDF-Extract step: PRK = HMAC-Hash(salt, ikm).
// A nil or empty salt stands for a string of HashLen zero bytes, as RFC
// 5869 §2.2 specifies; HMAC pads both to the same key block.
func Extract(salt, ikm []byte) []byte {
	m := getMAC(salt)
	defer macs.Put(m)
	return m.sum(make([]byte, 0, Size), ikm)
}

// Expand performs the HKDF-Expand step, deriving length bytes of output
// keying material from the pseudorandom key prk and the context info.
// It panics if length exceeds MaxOutput, mirroring the RFC's hard limit;
// callers in this module always request fixed, small lengths.
func Expand(prk, info []byte, length int) []byte {
	if length < 0 || length > MaxOutput {
		panic(fmt.Sprintf("hkdf: requested output length %d out of range [0,%d]", length, MaxOutput))
	}
	m := getMAC(prk)
	defer macs.Put(m)
	// Whole blocks fit, so each T(i) is appended in place and read back
	// as T(i+1)'s prefix.
	out := make([]byte, 0, (length+Size-1)/Size*Size)
	var prev []byte
	for len(out) < length {
		m.ctr[0]++
		out = m.sum(out, prev, info, m.ctr[:])
		prev = out[len(out)-Size:]
	}
	return out[:length]
}

// Key is a convenience wrapper running Extract then Expand.
func Key(salt, ikm, info []byte, length int) []byte {
	return Expand(Extract(salt, ikm), info, length)
}
