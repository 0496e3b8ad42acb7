package token

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestChallengeNoncesFresh(t *testing.T) {
	t.Parallel()
	a, _ := NewChallenge(2, "i", "o")
	b, _ := NewChallenge(2, "i", "o")
	if a.Nonce == b.Nonce {
		t.Error("two challenges share a nonce")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	t.Parallel()
	c, _ := NewChallenge(2, "i", "o")
	tok, err := NewToken(c)
	if err != nil {
		t.Fatal(err)
	}
	tok.Signature = []byte("fake signature bytes")
	got, err := Unmarshal(tok.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.TokenType != tok.TokenType || got.Nonce != tok.Nonce ||
		got.ChallengeDigest != tok.ChallengeDigest ||
		!bytes.Equal(got.Signature, tok.Signature) {
		t.Errorf("token = %+v, want %+v", got, tok)
	}
	if got.ID() != tok.ID() {
		t.Error("ID changed across round trip")
	}
}

func TestTokenBindsChallenge(t *testing.T) {
	t.Parallel()
	c1, _ := NewChallenge(2, "i", "o1")
	c2, _ := NewChallenge(2, "i", "o2")
	tok, _ := NewToken(c1)
	if tok.ChallengeDigest == c2.Digest() {
		t.Error("token digest matches foreign challenge")
	}
	if tok.ChallengeDigest != c1.Digest() {
		t.Error("token digest does not match its challenge")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	t.Parallel()
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil token unmarshaled")
	}
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Error("short token unmarshaled")
	}
	c, _ := NewChallenge(2, "i", "o")
	tok, _ := NewToken(c)
	tok.Signature = []byte("sig")
	trailing := append(tok.Marshal(), 0xFF)
	if _, err := Unmarshal(trailing); err == nil {
		t.Error("token with trailing bytes unmarshaled")
	}
}

func TestChallengeUnmarshalFuzzSafety(t *testing.T) {
	t.Parallel()
	f := func(data []byte) bool {
		// Must never panic; errors are fine.
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSpendCache(t *testing.T) {
	t.Parallel()
	c, _ := NewChallenge(2, "i", "o")
	t1, _ := NewToken(c)
	t2, _ := NewToken(c)
	cache := NewSpendCache()
	if err := cache.Redeem(t1); err != nil {
		t.Fatal(err)
	}
	if err := cache.Redeem(t1); err != ErrSpent {
		t.Errorf("double redeem error = %v", err)
	}
	if err := cache.Redeem(t2); err != nil {
		t.Errorf("distinct token rejected: %v", err)
	}
	if cache.Len() != 2 {
		t.Errorf("cache len = %d", cache.Len())
	}
}

func TestSignedMessageExcludesSignature(t *testing.T) {
	t.Parallel()
	c, _ := NewChallenge(2, "i", "o")
	tok, _ := NewToken(c)
	before := append([]byte(nil), tok.SignedMessage()...)
	tok.Signature = []byte("now signed")
	if !bytes.Equal(before, tok.SignedMessage()) {
		t.Error("SignedMessage changed when signature was attached")
	}
}
