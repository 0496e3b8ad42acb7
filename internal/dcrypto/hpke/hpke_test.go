package hpke

import (
	"bytes"
	"crypto/ecdh"
	"encoding/hex"
	"testing"
)

// TestRFC9180BaseVector pins the key schedule to RFC 9180 Appendix
// A.1.1, the known-answer vector for this module's one suite in base
// mode: DHKEM(X25519, HKDF-SHA256), HKDF-SHA256, AES-128-GCM. The
// round-trip tests below would still pass if a change broke the RFC on
// both the sending and the receiving side; this one would not.
func TestRFC9180BaseVector(t *testing.T) {
	t.Parallel()
	unhex := func(s string) []byte {
		t.Helper()
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatalf("bad hex fixture: %v", err)
		}
		return b
	}
	var (
		info   = unhex("4f6465206f6e2061204772656369616e2055726e")
		skEm   = unhex("52c4a758a802cd8b936eceea314432798d5baf2d7e9235dc084ab1b9cfa2f736")
		pkRm   = unhex("3948cfe0ad1ddb695d780e59077195da6c56506b027329794ab02bca80815c4d")
		skRm   = unhex("4612c550263fc8ad58375df3f557aac531d26850903e55a9f23f21d8534e8ac8")
		enc    = unhex("37fda3567bdbd628e88668c3c8d7e97d1d1253b6d4ea6d44c150f741f1bf4431")
		shared = unhex("fe0e18c9f024ce43799ae393c7e8fe8fce9d218875e8227b0187c04e7d2ea1fc")
		nonce  = unhex("56d890e5accaaf011cff4b7d")
		export = unhex("45ff1c2e220db587171952c0592d5f5ebe103f1561a2614e38f2ffd47e99e3f8")
		pt     = unhex("4265617574792069732074727574682c20747275746820626561757479")
	)
	encryptions := []struct{ aad, ct []byte }{ // sequence numbers 0 and 1
		{unhex("436f756e742d30"), unhex("f938558b5d72f1a23810b4be2ab4f84331acc02fc97babc53a52ae8218a355a96d8770ac83d07bea87e13c512a")},
		{unhex("436f756e742d31"), unhex("af2d7e9ac9ae7e270f46ba1f975be53c09f8d875bdc8535458c2494e8a6eab251c03d0c22a56b8ca42c2063b84")},
	}

	eph, err := ecdh.X25519().NewPrivateKey(skEm)
	if err != nil {
		t.Fatal(err)
	}
	gotShared, gotEnc, err := encapWith(eph, pkRm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, enc) {
		t.Errorf("enc = %x, want %x", gotEnc, enc)
	}
	if !bytes.Equal(gotShared, shared) {
		t.Errorf("shared_secret = %x, want %x", gotShared, shared)
	}
	sender, err := keySchedule(gotShared, info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sender.baseNonce[:], nonce) {
		t.Errorf("base_nonce = %x, want %x", sender.baseNonce, nonce)
	}
	if !bytes.Equal(sender.exporterSecret, export) {
		t.Errorf("exporter_secret = %x, want %x", sender.exporterSecret, export)
	}
	for seq, e := range encryptions {
		if got := sender.Seal(e.aad, pt); !bytes.Equal(got, e.ct) {
			t.Errorf("seq %d: ct = %x, want %x", seq, got, e.ct)
		}
	}

	priv, err := ecdh.X25519().NewPrivateKey(skRm)
	if err != nil {
		t.Fatal(err)
	}
	kp := &KeyPair{priv: priv}
	if !bytes.Equal(kp.PublicKey(), pkRm) {
		t.Fatalf("skRm gives public key %x, want pkRm %x", kp.PublicKey(), pkRm)
	}
	recipient, err := SetupRecipient(enc, kp, info)
	if err != nil {
		t.Fatal(err)
	}
	for seq, e := range encryptions {
		got, err := recipient.Open(e.aad, e.ct)
		if err != nil || !bytes.Equal(got, pt) {
			t.Errorf("seq %d: Open = %x, %v; want %x", seq, got, err, pt)
		}
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	t.Parallel()
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	enc, ct, err := Seal(kp.PublicKey(), []byte("info"), []byte("aad"), []byte("hello decoupling"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Open(enc, kp, []byte("info"), []byte("aad"), ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "hello decoupling" {
		t.Errorf("round trip = %q", pt)
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	t.Parallel()
	kp, _ := GenerateKeyPair()
	enc, ct, err := Seal(kp.PublicKey(), nil, nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	ct[0] ^= 1
	if _, err := Open(enc, kp, nil, nil, ct); err == nil {
		t.Fatal("tampered ciphertext opened successfully")
	}
}

func TestOpenRejectsWrongAAD(t *testing.T) {
	t.Parallel()
	kp, _ := GenerateKeyPair()
	enc, ct, err := Seal(kp.PublicKey(), nil, []byte("right"), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(enc, kp, nil, []byte("wrong"), ct); err == nil {
		t.Fatal("ciphertext opened with wrong AAD")
	}
}

func TestOpenRejectsWrongInfo(t *testing.T) {
	t.Parallel()
	kp, _ := GenerateKeyPair()
	enc, ct, err := Seal(kp.PublicKey(), []byte("context-a"), nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(enc, kp, []byte("context-b"), nil, ct); err == nil {
		t.Fatal("ciphertext opened with wrong info")
	}
}

func TestOpenRejectsWrongRecipient(t *testing.T) {
	t.Parallel()
	kp1, _ := GenerateKeyPair()
	kp2, _ := GenerateKeyPair()
	enc, ct, err := Seal(kp1.PublicKey(), nil, nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(enc, kp2, nil, nil, ct); err == nil {
		t.Fatal("ciphertext opened by wrong recipient")
	}
}

// TestContextSequencing verifies that a multi-message context uses a
// fresh nonce per message and that out-of-order opens fail.
func TestContextSequencing(t *testing.T) {
	t.Parallel()
	kp, _ := GenerateKeyPair()
	enc, sender, err := SetupSender(kp.PublicKey(), []byte("seq"))
	if err != nil {
		t.Fatal(err)
	}
	recipient, err := SetupRecipient(enc, kp, []byte("seq"))
	if err != nil {
		t.Fatal(err)
	}

	msgs := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	var cts [][]byte
	for _, m := range msgs {
		cts = append(cts, sender.Seal(nil, m))
	}
	if bytes.Equal(cts[0], cts[1]) {
		t.Fatal("two seals of different messages share ciphertext prefix structure unexpectedly")
	}
	for i, ct := range cts {
		pt, err := recipient.Open(nil, ct)
		if err != nil {
			t.Fatalf("open message %d: %v", i, err)
		}
		if !bytes.Equal(pt, msgs[i]) {
			t.Errorf("message %d = %q, want %q", i, pt, msgs[i])
		}
	}
	// A replay of the first ciphertext must now fail (sequence advanced).
	if _, err := recipient.Open(nil, cts[0]); err == nil {
		t.Fatal("replayed ciphertext accepted")
	}
}

func TestExportConsistency(t *testing.T) {
	t.Parallel()
	kp, _ := GenerateKeyPair()
	enc, sender, err := SetupSender(kp.PublicKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	recipient, err := SetupRecipient(enc, kp, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := sender.Export([]byte("odoh response"), 32)
	b := recipient.Export([]byte("odoh response"), 32)
	if !bytes.Equal(a, b) {
		t.Error("sender and recipient exported different secrets")
	}
	c := recipient.Export([]byte("other label"), 32)
	if bytes.Equal(a, c) {
		t.Error("different exporter contexts produced identical secrets")
	}
}

func TestKeyPairFromSeedDeterministic(t *testing.T) {
	t.Parallel()
	seed := bytes.Repeat([]byte{7}, 32)
	kp1, err := KeyPairFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	kp2, err := KeyPairFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kp1.PublicKey(), kp2.PublicKey()) {
		t.Error("same seed produced different key pairs")
	}
	kp3, _ := KeyPairFromSeed(bytes.Repeat([]byte{8}, 32))
	if bytes.Equal(kp1.PublicKey(), kp3.PublicKey()) {
		t.Error("different seeds produced identical key pairs")
	}
}

func TestDecapRejectsShortEnc(t *testing.T) {
	t.Parallel()
	kp, _ := GenerateKeyPair()
	if _, err := SetupRecipient([]byte{1, 2, 3}, kp, nil); err == nil {
		t.Fatal("short encapsulated key accepted")
	}
}

// TestCiphertextHidesPlaintextSizeOnly documents the property traffic
// analysis (§4.3) exploits: ciphertext length = plaintext length + tag.
func TestCiphertextOverheadIsConstant(t *testing.T) {
	t.Parallel()
	kp, _ := GenerateKeyPair()
	for _, n := range []int{0, 1, 100, 4096} {
		_, ct, err := Seal(kp.PublicKey(), nil, nil, make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		if len(ct) != n+16 {
			t.Errorf("plaintext %d bytes -> ciphertext %d, want %d", n, len(ct), n+16)
		}
	}
}

func BenchmarkSeal(b *testing.B) {
	kp, _ := GenerateKeyPair()
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Seal(kp.PublicKey(), nil, nil, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealOpen(b *testing.B) {
	kp, _ := GenerateKeyPair()
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, ct, err := Seal(kp.PublicKey(), nil, nil, msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Open(enc, kp, nil, nil, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContextSeal(b *testing.B) {
	kp, _ := GenerateKeyPair()
	_, sender, err := SetupSender(kp.PublicKey(), nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sender.Seal(nil, msg)
	}
}

func TestSymmetricRoundTrip(t *testing.T) {
	t.Parallel()
	key := make([]byte, 16)
	copy(key, "0123456789abcdef")
	ct, err := SealSymmetric(key, []byte("aad"), []byte("symmetric payload"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := OpenSymmetric(key, []byte("aad"), ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "symmetric payload" {
		t.Errorf("round trip = %q", pt)
	}
}

func TestSymmetricNoncesFresh(t *testing.T) {
	t.Parallel()
	key := make([]byte, 16)
	a, _ := SealSymmetric(key, nil, []byte("same"))
	b, _ := SealSymmetric(key, nil, []byte("same"))
	if bytes.Equal(a, b) {
		t.Error("two seals of the same plaintext are identical (nonce reuse)")
	}
}

func TestSymmetricRejections(t *testing.T) {
	t.Parallel()
	key := make([]byte, 16)
	ct, err := SealSymmetric(key, []byte("right"), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSymmetric(key, []byte("wrong"), ct); err == nil {
		t.Error("wrong AAD accepted")
	}
	other := make([]byte, 16)
	other[0] = 1
	if _, err := OpenSymmetric(other, []byte("right"), ct); err == nil {
		t.Error("wrong key accepted")
	}
	if _, err := OpenSymmetric(key, nil, []byte("short")); err == nil {
		t.Error("truncated ciphertext accepted")
	}
	ct[len(ct)-1] ^= 1
	if _, err := OpenSymmetric(key, []byte("right"), ct); err == nil {
		t.Error("tampered ciphertext accepted")
	}
	if _, err := SealSymmetric([]byte("bad"), nil, nil); err == nil {
		t.Error("bad symmetric key size accepted for seal")
	}
	if _, err := OpenSymmetric([]byte("bad"), nil, make([]byte, 40)); err == nil {
		t.Error("bad symmetric key size accepted for open")
	}
}

func TestSetupSenderRejectsBadPublicKey(t *testing.T) {
	t.Parallel()
	if _, _, err := SetupSender([]byte("not a key"), nil); err == nil {
		t.Error("malformed recipient key accepted")
	}
	if _, _, err := Seal([]byte("not a key"), nil, nil, []byte("x")); err == nil {
		t.Error("Seal with malformed key succeeded")
	}
}

func TestKeyPairFromSeedRejectsNothing(t *testing.T) {
	t.Parallel()
	// Any seed works (clamped internally by the HKDF derivation); the
	// resulting keys must be valid recipients.
	kp, err := KeyPairFromSeed(nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, ct, err := Seal(kp.PublicKey(), nil, nil, []byte("to seeded key"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(enc, kp, nil, nil, ct); err != nil {
		t.Errorf("seeded key pair cannot decrypt: %v", err)
	}
}

func TestOpenRejectsGarbageEnc(t *testing.T) {
	t.Parallel()
	kp, _ := GenerateKeyPair()
	// 32 bytes that are a valid X25519 point format but random: Open
	// must fail at AEAD, not panic.
	garbageEnc := bytes.Repeat([]byte{0x42}, NEnc)
	if _, err := Open(garbageEnc, kp, nil, nil, make([]byte, 32)); err == nil {
		t.Error("garbage encapsulated key produced successful open")
	}
}
