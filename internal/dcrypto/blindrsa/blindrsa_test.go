package blindrsa

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// testKey caches one RSA key across tests; key generation dominates
// otherwise.
var (
	testKeyOnce sync.Once
	testKeyVal  *rsa.PrivateKey
)

func testKey(t testing.TB) *rsa.PrivateKey {
	testKeyOnce.Do(func() {
		k, err := GenerateKey(1024)
		if err != nil {
			t.Fatalf("generating test key: %v", err)
		}
		testKeyVal = k
	})
	return testKeyVal
}

func issue(t testing.TB, key *rsa.PrivateKey, msg []byte) []byte {
	t.Helper()
	blinded, st, err := Blind(&key.PublicKey, msg)
	if err != nil {
		t.Fatalf("Blind: %v", err)
	}
	blindSig, err := BlindSign(key, blinded)
	if err != nil {
		t.Fatalf("BlindSign: %v", err)
	}
	sig, err := Finalize(&key.PublicKey, st, blindSig)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return sig
}

func TestIssueAndVerify(t *testing.T) {
	t.Parallel()
	key := testKey(t)
	msg := []byte("one digital coin, serial 42")
	sig := issue(t, key, msg)
	if err := Verify(&key.PublicKey, msg, sig); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	t.Parallel()
	key := testKey(t)
	sig := issue(t, key, []byte("message A"))
	if err := Verify(&key.PublicKey, []byte("message B"), sig); err == nil {
		t.Error("signature verified against wrong message")
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	t.Parallel()
	key := testKey(t)
	msg := []byte("tamper target")
	sig := issue(t, key, msg)
	sig[0] ^= 1
	if err := Verify(&key.PublicKey, msg, sig); err == nil {
		t.Error("tampered signature verified")
	}
}

// TestBlindingHidesMessage checks the unlinkability mechanism: two
// blindings of the same message are distinct (randomized), so the signer
// cannot even detect repeat messages, let alone read them.
func TestBlindingHidesMessage(t *testing.T) {
	t.Parallel()
	key := testKey(t)
	msg := []byte("the same message")
	b1, _, err := Blind(&key.PublicKey, msg)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := Blind(&key.PublicKey, msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b2) {
		t.Error("two blindings of the same message are identical; signer could link them")
	}
}

// TestFinalizeDetectsCorruptSigner ensures the client notices a signer
// returning garbage rather than accepting an invalid token.
func TestFinalizeDetectsCorruptSigner(t *testing.T) {
	t.Parallel()
	key := testKey(t)
	blinded, st, err := Blind(&key.PublicKey, []byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	blindSig, err := BlindSign(key, blinded)
	if err != nil {
		t.Fatal(err)
	}
	blindSig[3] ^= 0xFF
	if _, err := Finalize(&key.PublicKey, st, blindSig); err == nil {
		t.Error("Finalize accepted corrupted blind signature")
	}
}

func TestBlindSignRejectsOutOfRange(t *testing.T) {
	t.Parallel()
	key := testKey(t)
	tooBig := make([]byte, (key.N.BitLen()+7)/8+1)
	for i := range tooBig {
		tooBig[i] = 0xFF
	}
	if _, err := BlindSign(key, tooBig); err == nil {
		t.Error("BlindSign accepted out-of-range value")
	}
}

// plainSign is the reference signer: the full-width blinded^d mod n that
// BlindSign's CRT form must reproduce byte for byte.
func plainSign(key *rsa.PrivateKey, b *big.Int) []byte {
	s := new(big.Int).Exp(b, key.D, key.N)
	return s.FillBytes(make([]byte, (key.N.BitLen()+7)/8))
}

func checkAgainstPlain(t *testing.T, key *rsa.PrivateKey, name string, b *big.Int) {
	t.Helper()
	blinded := b.FillBytes(make([]byte, (key.N.BitLen()+7)/8))
	got, err := BlindSign(key, blinded)
	if err != nil {
		t.Fatalf("%s: BlindSign: %v", name, err)
	}
	if want := plainSign(key, b); !bytes.Equal(got, want) {
		t.Fatalf("%s: CRT signature differs from blinded^d mod n", name)
	}
}

func TestBlindSignMatchesPlainExp(t *testing.T) {
	t.Parallel()
	key := testKey(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		checkAgainstPlain(t, key, "random", new(big.Int).Rand(rng, key.N))
	}
}

func TestBlindSignEdgeInputs(t *testing.T) {
	t.Parallel()
	key := testKey(t)
	p, q := key.Primes[0], key.Primes[1]
	for _, c := range []struct {
		name string
		b    *big.Int
	}{
		{"0", big.NewInt(0)},
		{"1", big.NewInt(1)},
		{"n-1", new(big.Int).Sub(key.N, big.NewInt(1))},
		{"p", new(big.Int).Set(p)},
		{"p(q-1)", new(big.Int).Sub(key.N, p)},
		{"q", new(big.Int).Set(q)},
		{"(p-1)q", new(big.Int).Sub(key.N, q)},
	} {
		checkAgainstPlain(t, key, c.name, c.b)
	}
}

// TestBlindSignDetectsCorruptCRT: a wrong Dp yields a wrong half mod p;
// the s^e check must catch it and return no signature.
func TestBlindSignDetectsCorruptCRT(t *testing.T) {
	t.Parallel()
	bad := *testKey(t)
	bad.Precomputed.Dp = new(big.Int).Add(bad.Precomputed.Dp, big.NewInt(1))
	blinded, _, err := Blind(&bad.PublicKey, []byte("fault target"))
	if err != nil {
		t.Fatal(err)
	}
	sig, err := BlindSign(&bad, blinded)
	if !errors.Is(err, ErrSignFault) || sig != nil {
		t.Fatalf("BlindSign with corrupt Dp = (%x, %v), want (nil, ErrSignFault)", sig, err)
	}
}

func TestBlindSignRequiresCRTValues(t *testing.T) {
	t.Parallel()
	bare := *testKey(t)
	bare.Precomputed = rsa.PrecomputedValues{}
	blinded, _, err := Blind(&bare.PublicKey, []byte("no crt"))
	if err != nil {
		t.Fatal(err)
	}
	if sig, err := BlindSign(&bare, blinded); !errors.Is(err, ErrNoCRT) || sig != nil {
		t.Fatalf("BlindSign without CRT values = (%x, %v), want (nil, ErrNoCRT)", sig, err)
	}
}

func TestCrossKeyVerificationFails(t *testing.T) {
	t.Parallel()
	key := testKey(t)
	other, err := GenerateKey(1024)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("issued under key 1")
	sig := issue(t, key, msg)
	if err := Verify(&other.PublicKey, msg, sig); err == nil {
		t.Error("signature verified under unrelated key")
	}
}

// TestSignaturesAreDeterministicPerMessage: after unblinding, the
// signature is the plain FDH-RSA signature, so two independent issuances
// of the same message yield the same final signature. This is what makes
// double-spend detection by serial possible in digitalcash.
func TestSignaturesAreDeterministicPerMessage(t *testing.T) {
	t.Parallel()
	key := testKey(t)
	msg := []byte("serial 7")
	s1 := issue(t, key, msg)
	s2 := issue(t, key, msg)
	if !bytes.Equal(s1, s2) {
		t.Error("unblinded signatures differ for identical message")
	}
}

func BenchmarkIssue(b *testing.B) {
	key := testKey(b)
	msg := []byte("benchmark token")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		issue(b, key, msg)
	}
}

// BenchmarkBlindSign isolates the signer's operation at 1024 bits.
func BenchmarkBlindSign(b *testing.B) {
	key := testKey(b)
	blinded, _, err := Blind(&key.PublicKey, []byte("benchmark token"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BlindSign(key, blinded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	key := testKey(b)
	msg := []byte("benchmark token")
	sig := issue(b, key, msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Verify(&key.PublicKey, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}
