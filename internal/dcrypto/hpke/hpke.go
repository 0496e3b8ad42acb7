// Package hpke implements Hybrid Public Key Encryption (RFC 9180) in
// base mode for the single ciphersuite used throughout this module:
//
//	DHKEM(X25519, HKDF-SHA256), HKDF-SHA256, AES-128-GCM
//
// It follows the RFC's labeled key schedule exactly (the "HPKE-v1"
// labels, suite ids, and nonce sequencing), so encapsulations produced
// here are wire-compatible in structure with deployed ODoH/OHTTP stacks
// even though this module never talks to them. Only the base (unauthenticated
// sender) mode is provided because that is the mode ODoH, OHTTP, and the
// mix-net onion layers require.
package hpke

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"

	"decoupling/internal/dcrypto/hkdf"
)

// Ciphersuite constants (RFC 9180 §7).
const (
	KEMX25519HKDFSHA256 = 0x0020
	KDFHKDFSHA256       = 0x0001
	AEADAES128GCM       = 0x0001

	// NK is the AEAD key size, NN the nonce size, NSecret the KEM
	// shared-secret size, all in bytes for this suite.
	NK      = 16
	NN      = 12
	NSecret = 32
	// NEnc is the size of a serialized encapsulated key (X25519 point).
	NEnc = 32
	// NPK is the size of a serialized public key.
	NPK = 32
)

const modeBase = 0x00

var (
	// ErrOpen is returned when AEAD authentication fails.
	ErrOpen = errors.New("hpke: message authentication failed")
	// ErrKeySize is returned for malformed key material.
	ErrKeySize = errors.New("hpke: invalid key size")
)

// KeyPair holds an X25519 key pair for use as an HPKE recipient.
type KeyPair struct {
	priv *ecdh.PrivateKey
}

// GenerateKeyPair creates a fresh X25519 recipient key pair.
func GenerateKeyPair() (*KeyPair, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("hpke: generating key pair: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// KeyPairFromSeed derives a deterministic key pair from a 32-byte seed.
// It exists so tests and the deterministic simulator can create stable
// recipients; the derivation is DeriveKeyPair-like (labeled HKDF) but is
// not required to interoperate with other stacks.
func KeyPairFromSeed(seed []byte) (*KeyPair, error) {
	sk := hkdf.Key(nil, seed, []byte("decoupling hpke seed"), 32)
	priv, err := ecdh.X25519().NewPrivateKey(sk)
	if err != nil {
		return nil, fmt.Errorf("hpke: deriving key pair: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// PublicKey returns the serialized (32-byte) public key.
func (kp *KeyPair) PublicKey() []byte { return kp.priv.PublicKey().Bytes() }

// suiteID and kemSuiteID are the suite_id strings of the key schedule
// (RFC 9180 §5.1) and of the KEM (§4.1). With base mode's psk_id_hash,
// the labeled extract of an empty psk_id, they are constants of the one
// suite, so they are computed once.
var (
	suiteID    = appendIDs([]byte("HPKE"), KEMX25519HKDFSHA256, KDFHKDFSHA256, AEADAES128GCM)
	kemSuiteID = appendIDs([]byte("KEM"), KEMX25519HKDFSHA256)
	pskIDHash  = labeledExtract(suiteID, nil, "psk_id_hash", nil)
)

func appendIDs(b []byte, ids ...uint16) []byte {
	for _, id := range ids {
		b = binary.BigEndian.AppendUint16(b, id)
	}
	return b
}

func labeledExtract(suite, salt []byte, label string, ikm []byte) []byte {
	li := make([]byte, 0, 7+len(suite)+len(label)+len(ikm))
	li = append(li, "HPKE-v1"...)
	li = append(li, suite...)
	li = append(li, label...)
	li = append(li, ikm...)
	return hkdf.Extract(salt, li)
}

func labeledExpand(suite, prk []byte, label string, info []byte, length int) []byte {
	li := make([]byte, 0, 2+7+len(suite)+len(label)+len(info))
	li = binary.BigEndian.AppendUint16(li, uint16(length))
	li = append(li, "HPKE-v1"...)
	li = append(li, suite...)
	li = append(li, label...)
	li = append(li, info...)
	return hkdf.Expand(prk, li, length)
}

// extractAndExpand implements DHKEM's ExtractAndExpand (RFC 9180 §4.1).
func extractAndExpand(dh, kemContext []byte) []byte {
	eaePRK := labeledExtract(kemSuiteID, nil, "eae_prk", dh)
	return labeledExpand(kemSuiteID, eaePRK, "shared_secret", kemContext, NSecret)
}

// encap performs DHKEM.Encap against the recipient public key pkR,
// returning the shared secret and the encapsulated key.
func encap(pkR []byte) (sharedSecret, enc []byte, err error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("hpke: ephemeral key: %w", err)
	}
	return encapWith(eph, pkR)
}

// encapWith is encap with the ephemeral key eph chosen by the caller,
// so a known-answer test can fix it.
func encapWith(eph *ecdh.PrivateKey, pkR []byte) (sharedSecret, enc []byte, err error) {
	remote, err := ecdh.X25519().NewPublicKey(pkR)
	if err != nil {
		return nil, nil, fmt.Errorf("hpke: recipient public key: %w", err)
	}
	dh, err := eph.ECDH(remote)
	if err != nil {
		return nil, nil, fmt.Errorf("hpke: ecdh: %w", err)
	}
	enc = eph.PublicKey().Bytes()
	kemContext := append(append([]byte{}, enc...), pkR...)
	return extractAndExpand(dh, kemContext), enc, nil
}

// decap performs DHKEM.Decap with the recipient private key.
func decap(enc []byte, kp *KeyPair) ([]byte, error) {
	if len(enc) != NEnc {
		return nil, ErrKeySize
	}
	ephPub, err := ecdh.X25519().NewPublicKey(enc)
	if err != nil {
		return nil, fmt.Errorf("hpke: encapsulated key: %w", err)
	}
	dh, err := kp.priv.ECDH(ephPub)
	if err != nil {
		return nil, fmt.Errorf("hpke: ecdh: %w", err)
	}
	kemContext := append(append([]byte{}, enc...), kp.PublicKey()...)
	return extractAndExpand(dh, kemContext), nil
}

// Context is an established HPKE encryption context. A sender context
// seals, a recipient context opens; both share the same key schedule.
// Contexts are not safe for concurrent use.
type Context struct {
	aead           cipher.AEAD
	baseNonce      [NN]byte
	nonce          [NN]byte // the current message's nonce, reused
	seq            uint64
	exporterSecret []byte
}

func keySchedule(sharedSecret, info []byte) (*Context, error) {
	infoHash := labeledExtract(suiteID, nil, "info_hash", info)
	ksc := make([]byte, 0, 1+len(pskIDHash)+len(infoHash))
	ksc = append(ksc, modeBase)
	ksc = append(ksc, pskIDHash...)
	ksc = append(ksc, infoHash...)

	secret := labeledExtract(suiteID, sharedSecret, "secret", nil)
	key := labeledExpand(suiteID, secret, "key", ksc, NK)
	baseNonce := labeledExpand(suiteID, secret, "base_nonce", ksc, NN)
	exporter := labeledExpand(suiteID, secret, "exp", ksc, hkdf.Size)

	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("hpke: aes: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("hpke: gcm: %w", err)
	}
	ctx := &Context{aead: aead, exporterSecret: exporter}
	copy(ctx.baseNonce[:], baseNonce)
	return ctx, nil
}

// SetupSender establishes a sender context to the recipient public key
// pkR with application-supplied info, returning the encapsulated key to
// transmit alongside ciphertexts.
func SetupSender(pkR, info []byte) (enc []byte, ctx *Context, err error) {
	sharedSecret, enc, err := encap(pkR)
	if err != nil {
		return nil, nil, err
	}
	ctx, err = keySchedule(sharedSecret, info)
	if err != nil {
		return nil, nil, err
	}
	return enc, ctx, nil
}

// SetupRecipient establishes the matching recipient context from the
// received encapsulated key.
func SetupRecipient(enc []byte, kp *KeyPair, info []byte) (*Context, error) {
	sharedSecret, err := decap(enc, kp)
	if err != nil {
		return nil, err
	}
	return keySchedule(sharedSecret, info)
}

func (c *Context) nextNonce() []byte {
	c.nonce = c.baseNonce
	var seqBytes [8]byte
	binary.BigEndian.PutUint64(seqBytes[:], c.seq)
	for i := 0; i < 8; i++ {
		c.nonce[NN-8+i] ^= seqBytes[i]
	}
	c.seq++
	return c.nonce[:]
}

// Seal encrypts plaintext with associated data aad under the context's
// current sequence number.
func (c *Context) Seal(aad, plaintext []byte) []byte {
	return c.aead.Seal(nil, c.nextNonce(), plaintext, aad)
}

// Open decrypts and authenticates ciphertext with associated data aad.
func (c *Context) Open(aad, ciphertext []byte) ([]byte, error) {
	pt, err := c.aead.Open(nil, c.nextNonce(), ciphertext, aad)
	if err != nil {
		return nil, ErrOpen
	}
	return pt, nil
}

// Export derives length bytes of secret keying material bound to this
// context and exporterContext (RFC 9180 §5.3). ODoH uses this to key the
// response direction.
func (c *Context) Export(exporterContext []byte, length int) []byte {
	return labeledExpand(suiteID, c.exporterSecret, "sec", exporterContext, length)
}

// Seal is the single-shot API: it encapsulates to pkR and encrypts one
// message, returning enc || ciphertext concatenated by the caller's
// framing of choice. It is used where a context round trip is not needed
// (e.g. mix-net onion layers).
func Seal(pkR, info, aad, plaintext []byte) (enc, ciphertext []byte, err error) {
	enc, ctx, err := SetupSender(pkR, info)
	if err != nil {
		return nil, nil, err
	}
	return enc, ctx.Seal(aad, plaintext), nil
}

// Open is the single-shot counterpart of Seal.
func Open(enc []byte, kp *KeyPair, info, aad, ciphertext []byte) ([]byte, error) {
	ctx, err := SetupRecipient(enc, kp, info)
	if err != nil {
		return nil, err
	}
	return ctx.Open(aad, ciphertext)
}

// SealSymmetric encrypts plaintext with AES-128-GCM under key, using a
// fresh random nonce prepended to the ciphertext. It is the response
// encryption primitive for the oblivious protocols: the response key is
// either carried inside the sealed query (ODNS) or derived from the
// query context via Export (ODoH/OHTTP).
func SealSymmetric(key, aad, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("hpke: symmetric key: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("hpke: nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, plaintext, aad), nil
}

// OpenSymmetric reverses SealSymmetric.
func OpenSymmetric(key, aad, sealed []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("hpke: symmetric key: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(sealed) < gcm.NonceSize() {
		return nil, ErrOpen
	}
	pt, err := gcm.Open(nil, sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():], aad)
	if err != nil {
		return nil, ErrOpen
	}
	return pt, nil
}
