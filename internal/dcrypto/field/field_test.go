package field

import (
	"encoding/binary"
	"math/big"
	"testing"
	"testing/quick"
)

var bigP = new(big.Int).SetUint64(P)

func bigMod(x *big.Int) Elem {
	return Elem(new(big.Int).Mod(x, bigP).Uint64())
}

// TestMulMatchesBigInt cross-checks the Mersenne multiplication against
// math/big over random inputs (property-based).
func TestMulMatchesBigInt(t *testing.T) {
	t.Parallel()
	f := func(a, b uint64) bool {
		x, y := Reduce(a), Reduce(b)
		got := Mul(x, y)
		want := bigMod(new(big.Int).Mul(
			new(big.Int).SetUint64(uint64(x)),
			new(big.Int).SetUint64(uint64(y)),
		))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAddSubInverse(t *testing.T) {
	t.Parallel()
	f := func(a, b uint64) bool {
		x, y := Reduce(a), Reduce(b)
		return Sub(Add(x, y), y) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMulInvIdentity: x times its inverse (from math/big) is 1.
func TestMulInvIdentity(t *testing.T) {
	t.Parallel()
	f := func(a uint64) bool {
		x := Reduce(a)
		if x == 0 {
			return true
		}
		inv := new(big.Int).ModInverse(new(big.Int).SetUint64(uint64(x)), bigP)
		return Mul(x, Elem(inv.Uint64())) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReduceEdgeCases(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in   uint64
		want Elem
	}{
		{0, 0},
		{P - 1, Elem(P - 1)},
		{P, 0},
		{P + 1, 1},
		{^uint64(0), Elem((^uint64(0))>>61 + (^uint64(0))&P - P)},
	}
	for _, c := range cases {
		if got := Reduce(c.in); got != c.want {
			t.Errorf("Reduce(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSplitRecombine(t *testing.T) {
	t.Parallel()
	v := Vector{1, 2, 3, Elem(P - 1), 0, 12345}
	for _, n := range []int{1, 2, 3, 7} {
		shares, err := v.Split(n)
		if err != nil {
			t.Fatalf("Split(%d): %v", n, err)
		}
		if len(shares) != n {
			t.Fatalf("Split(%d) produced %d shares", n, len(shares))
		}
		back, err := Recombine(shares)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if back[i] != v[i] {
				t.Errorf("n=%d element %d: recombined %d, want %d", n, i, back[i], v[i])
			}
		}
	}
}

// TestSharesLookRandom: a single share of a constant vector should not be
// constant (overwhelming probability) — a smoke check of the hiding
// property.
func TestSharesLookRandom(t *testing.T) {
	t.Parallel()
	v := NewVector(64) // all zeros
	shares, err := v.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	allZero := true
	for _, e := range shares[0] {
		if e != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Error("first share of zero vector is all zeros; shares are not hiding")
	}
	// And the two shares must differ from each other elementwise in general.
	same := 0
	for i := range shares[0] {
		if shares[0][i] == shares[1][i] {
			same++
		}
	}
	if same == len(shares[0]) {
		t.Error("shares are identical")
	}
}

func TestSplitErrors(t *testing.T) {
	t.Parallel()
	v := Vector{1}
	if _, err := v.Split(0); err == nil {
		t.Error("Split(0) succeeded")
	}
	if _, err := Recombine(nil); err == nil {
		t.Error("Recombine(nil) succeeded")
	}
}

// TestMarshalRoundTrip: Marshal writes each element as a big-endian
// uint64, so reading the words back recovers the vector.
func TestMarshalRoundTrip(t *testing.T) {
	t.Parallel()
	v := Vector{0, 1, Elem(P - 1), 99999}
	b := v.Marshal()
	if len(b) != 8*len(v) {
		t.Fatalf("encoding length %d, want %d", len(b), 8*len(v))
	}
	for i := range v {
		if got := Elem(binary.BigEndian.Uint64(b[8*i:])); got != v[i] {
			t.Errorf("element %d: %d != %d", i, got, v[i])
		}
	}
}

func TestRandomInRange(t *testing.T) {
	t.Parallel()
	for i := 0; i < 100; i++ {
		r, err := Random()
		if err != nil {
			t.Fatal(err)
		}
		if uint64(r) >= P {
			t.Fatalf("Random() = %d out of range", r)
		}
	}
}

func TestAddIntoPanicsOnLengthMismatch(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("AddInto did not panic on length mismatch")
		}
	}()
	NewVector(2).AddInto(NewVector(3))
}

func BenchmarkMul(b *testing.B) {
	x, y := Elem(123456789), Elem(987654321)
	for i := 0; i < b.N; i++ {
		x = Mul(x, y)
	}
	_ = x
}

func BenchmarkSplit2x1024(b *testing.B) {
	v := NewVector(1024)
	for i := range v {
		v[i] = Elem(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := v.Split(2); err != nil {
			b.Fatal(err)
		}
	}
}
