package hkdf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex fixture: %v", err)
	}
	return b
}

// TestRFC5869Case1 checks the first official SHA-256 test vector.
func TestRFC5869Case1(t *testing.T) {
	t.Parallel()
	ikm := mustHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt := mustHex(t, "000102030405060708090a0b0c")
	info := mustHex(t, "f0f1f2f3f4f5f6f7f8f9")
	wantPRK := mustHex(t, "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	wantOKM := mustHex(t, "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")

	prk := Extract(salt, ikm)
	if !bytes.Equal(prk, wantPRK) {
		t.Errorf("Extract = %x, want %x", prk, wantPRK)
	}
	okm := Expand(prk, info, 42)
	if !bytes.Equal(okm, wantOKM) {
		t.Errorf("Expand = %x, want %x", okm, wantOKM)
	}
}

// TestRFC5869Case2 checks the long-input vector: its 80-byte salt is
// longer than SHA-256's block, so HMAC must hash it first, and its
// 82-byte output takes three Expand blocks.
func TestRFC5869Case2(t *testing.T) {
	t.Parallel()
	seq := func(from byte) []byte {
		b := make([]byte, 80)
		for i := range b {
			b[i] = from + byte(i)
		}
		return b
	}
	wantPRK := mustHex(t, "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244")
	wantOKM := mustHex(t, "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"+
		"59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87")

	prk := Extract(seq(0x60), seq(0x00))
	if !bytes.Equal(prk, wantPRK) {
		t.Errorf("Extract = %x, want %x", prk, wantPRK)
	}
	okm := Expand(prk, seq(0xb0), 82)
	if !bytes.Equal(okm, wantOKM) {
		t.Errorf("Expand = %x, want %x", okm, wantOKM)
	}
}

// TestExtractMatchesCryptoHMAC holds Extract, which is one HMAC, to
// crypto/hmac for keys on both sides of SHA-256's 64-byte block.
func TestExtractMatchesCryptoHMAC(t *testing.T) {
	t.Parallel()
	msg := []byte("input keying material")
	for n := 0; n <= 2*sha256.BlockSize+1; n++ {
		key := bytes.Repeat([]byte{byte(n)}, n)
		ref := hmac.New(sha256.New, key)
		if n == 0 {
			ref = hmac.New(sha256.New, make([]byte, Size))
		}
		ref.Write(msg)
		if got, want := Extract(key, msg), ref.Sum(nil); !bytes.Equal(got, want) {
			t.Errorf("%d-byte salt: Extract = %x, HMAC = %x", n, got, want)
		}
	}
}

// TestConcurrentUse derives from several goroutines at once. Calls
// share recycled HMAC states, so under -race this checks that no state
// serves two calls at a time; each goroutine's key differs, so a state
// leaking between calls would also change an output.
func TestConcurrentUse(t *testing.T) {
	t.Parallel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		salt := bytes.Repeat([]byte{byte(g)}, 1+g*20) // some longer than a block
		want := Key(salt, []byte("ikm"), []byte("info"), 80)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := Key(salt, []byte("ikm"), []byte("info"), 80); !bytes.Equal(got, want) {
					t.Errorf("%d-byte salt: Key = %x, want %x", len(salt), got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRFC5869Case3 checks the zero-length salt/info vector, exercising
// the nil-salt default path.
func TestRFC5869Case3(t *testing.T) {
	t.Parallel()
	ikm := mustHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	wantOKM := mustHex(t, "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")

	okm := Key(nil, ikm, nil, 42)
	if !bytes.Equal(okm, wantOKM) {
		t.Errorf("Key = %x, want %x", okm, wantOKM)
	}
}

func TestExpandLengths(t *testing.T) {
	t.Parallel()
	prk := Extract(nil, []byte("ikm"))
	for _, n := range []int{0, 1, 31, 32, 33, 64, 255, 1000, MaxOutput} {
		out := Expand(prk, []byte("info"), n)
		if len(out) != n {
			t.Errorf("Expand length %d: got %d bytes", n, len(out))
		}
	}
}

func TestExpandPrefixConsistency(t *testing.T) {
	t.Parallel()
	prk := Extract(nil, []byte("ikm"))
	long := Expand(prk, []byte("x"), 96)
	short := Expand(prk, []byte("x"), 17)
	if !bytes.Equal(long[:17], short) {
		t.Error("shorter expansion is not a prefix of longer expansion")
	}
}

func TestExpandPanicsOutOfRange(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Expand did not panic for out-of-range length")
		}
	}()
	Expand(Extract(nil, []byte("ikm")), nil, MaxOutput+1)
}

func TestDistinctInfoDistinctOutput(t *testing.T) {
	t.Parallel()
	prk := Extract(nil, []byte("ikm"))
	a := Expand(prk, []byte("a"), 32)
	b := Expand(prk, []byte("b"), 32)
	if bytes.Equal(a, b) {
		t.Error("different info produced identical output")
	}
}

func BenchmarkKey32(b *testing.B) {
	ikm := []byte("benchmark input keying material")
	for i := 0; i < b.N; i++ {
		Key(nil, ikm, []byte("info"), 32)
	}
}
