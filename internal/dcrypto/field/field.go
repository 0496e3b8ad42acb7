// Package field implements arithmetic in the prime field GF(p) with
// p = 2^61 - 1 (a Mersenne prime), plus additive secret sharing over
// that field. It is the algebra underneath the Prio-style private
// aggregation system (internal/ppm, paper §3.2.5).
//
// The Mersenne choice makes modular reduction two adds and a mask, which
// keeps share generation and aggregation fast enough that the benchmarks
// measure protocol structure rather than big-integer overhead.
package field

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// P is the field modulus, 2^61 - 1.
const P uint64 = (1 << 61) - 1

// Elem is a field element, always kept reduced to [0, P).
type Elem uint64

// ErrShareCount is returned when recombining an empty share set.
var ErrShareCount = errors.New("field: no shares to recombine")

// Reduce maps any uint64 into the field.
func Reduce(x uint64) Elem {
	// Two-step Mersenne fold: x = hi*2^61 + lo ≡ hi + lo (mod 2^61-1).
	x = (x >> 61) + (x & P)
	if x >= P {
		x -= P
	}
	return Elem(x)
}

// Add returns a + b mod P.
func Add(a, b Elem) Elem {
	s := uint64(a) + uint64(b) // < 2^62, no overflow
	if s >= P {
		s -= P
	}
	return Elem(s)
}

// Neg returns -a mod P.
func Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Elem(P - uint64(a))
}

// Sub returns a - b mod P.
func Sub(a, b Elem) Elem { return Add(a, Neg(b)) }

// Mul returns a * b mod P using 128-bit intermediate arithmetic and
// Mersenne folding.
func Mul(a, b Elem) Elem {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// a,b < 2^61 so the product < 2^122: hi < 2^58.
	// product = hi*2^64 + lo = hi*8*2^61 + lo ≡ hi*8 + lo (mod 2^61-1)
	// with lo itself folded as lo = (lo >> 61)*2^61 + (lo & P).
	folded := (hi << 3) | (lo >> 61) // top 64-61 bits combined, < 2^61
	r := folded + (lo & P)
	return Reduce(r)
}

// Random returns a uniformly random field element from crypto/rand.
func Random() (Elem, error) {
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("field: random: %w", err)
		}
		// Rejection sample from the top 61 bits to avoid modulo bias.
		v := binary.BigEndian.Uint64(buf[:]) >> 3
		if v < P {
			return Elem(v), nil
		}
	}
}

// Vector is a slice of field elements with elementwise helpers.
type Vector []Elem

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// AddInto accumulates other into v elementwise; the lengths must match.
func (v Vector) AddInto(other Vector) {
	if len(v) != len(other) {
		panic(fmt.Sprintf("field: vector length mismatch %d != %d", len(v), len(other)))
	}
	for i := range v {
		v[i] = Add(v[i], other[i])
	}
}

// Split produces n additive shares of v: n-1 uniformly random vectors and
// one correction vector, summing elementwise to v. Any proper subset of
// the shares is uniformly random and reveals nothing about v — this is
// the mechanism by which PPM's aggregators are kept at (△, ⊙).
func (v Vector) Split(n int) ([]Vector, error) {
	if n < 1 {
		return nil, fmt.Errorf("field: cannot split into %d shares", n)
	}
	shares := make([]Vector, n)
	last := make(Vector, len(v))
	copy(last, v)
	for i := 0; i < n-1; i++ {
		share := NewVector(len(v))
		for j := range share {
			r, err := Random()
			if err != nil {
				return nil, err
			}
			share[j] = r
			last[j] = Sub(last[j], r)
		}
		shares[i] = share
	}
	shares[n-1] = last
	return shares, nil
}

// Recombine sums a complete share set back into the original vector.
func Recombine(shares []Vector) (Vector, error) {
	if len(shares) == 0 {
		return nil, ErrShareCount
	}
	out := NewVector(len(shares[0]))
	for _, s := range shares {
		out.AddInto(s)
	}
	return out, nil
}

// Marshal encodes the vector as big-endian uint64s.
func (v Vector) Marshal() []byte {
	out := make([]byte, 8*len(v))
	for i, e := range v {
		binary.BigEndian.PutUint64(out[8*i:], uint64(e))
	}
	return out
}
