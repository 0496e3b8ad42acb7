// Package tee models Trusted Execution Environments as a decoupling
// mechanism, per the paper's §4.3: hardware that runs attested code on
// a host that cannot inspect its state, shifting the locus of trust to
// the hardware vendor. The paper names two systems built this way —
// CACTI (client-side TEE keeping private rate-limiting state in place
// of CAPTCHAs) and Phoenix (keyless CDNs serving TLS from enclaves the
// CDN operator cannot read) — both of which this package models in
// applications.go.
//
// The model captures exactly the properties the argument needs:
//
//   - Measurement: an enclave's identity is the digest of its program;
//     attestation binds (vendor, measurement, report data) under the
//     vendor's signing key (ed25519 here).
//   - Isolation: the host can Invoke the enclave and observe the
//     input/output byte lengths, but cannot read state or intermediate
//     values — enforced in the model by construction: Invoke is the
//     only door, and the ledger instrumentation records what the HOST
//     sees, which is never the plaintext state.
package tee

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by attestation verification.
var (
	ErrBadAttestation    = errors.New("tee: attestation signature invalid")
	ErrWrongMeasurement  = errors.New("tee: enclave runs unexpected code")
	ErrWrongNonce        = errors.New("tee: attestation not bound to challenge")
	ErrEnclaveFault      = errors.New("tee: enclave program fault")
	ErrUnknownVendorMode = errors.New("tee: unknown vendor")
)

// Program is the code an enclave runs: a pure transition function over
// sealed state. Name determines the measurement, so two programs with
// the same logic but different names measure differently (as binaries
// would).
type Program struct {
	Name string
	Run  func(state, input []byte) (newState, output []byte, err error)
}

// Measurement returns the program digest an attestation commits to.
func (p Program) Measurement() [32]byte {
	return sha256.Sum256([]byte("tee program:" + p.Name))
}

// Vendor is a hardware manufacturer: the root of trust. It signs
// attestations for enclaves it manufactured.
type Vendor struct {
	Name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewVendor creates a vendor with a fresh attestation key.
func NewVendor(name string) (*Vendor, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("tee: vendor key: %w", err)
	}
	return &Vendor{Name: name, pub: pub, priv: priv}, nil
}

// PublicKey returns the vendor's attestation verification key.
func (v *Vendor) PublicKey() ed25519.PublicKey { return v.pub }

// Manufacture creates an enclave running program on this vendor's
// hardware.
func (v *Vendor) Manufacture(program Program) *Enclave {
	return &Enclave{vendor: v, program: program}
}

// Attestation is a signed statement: "an enclave of this vendor, whose
// code measures to Measurement, produced ReportData in response to
// Nonce".
type Attestation struct {
	Vendor      string
	Measurement [32]byte
	Nonce       []byte
	ReportData  []byte
	Signature   []byte
}

func (a *Attestation) signedBytes() []byte {
	out := make([]byte, 0, 64+len(a.Nonce)+len(a.ReportData))
	out = append(out, "tee attestation:"...)
	out = append(out, a.Vendor...)
	out = append(out, a.Measurement[:]...)
	out = append(out, byte(len(a.Nonce)))
	out = append(out, a.Nonce...)
	out = append(out, a.ReportData...)
	return out
}

// Verify checks an attestation against the vendor key, the expected
// program measurement, and the verifier's challenge nonce.
func Verify(vendorKey ed25519.PublicKey, a *Attestation, expected Program, nonce []byte) error {
	if a.Measurement != expected.Measurement() {
		return ErrWrongMeasurement
	}
	if string(a.Nonce) != string(nonce) {
		return ErrWrongNonce
	}
	if !ed25519.Verify(vendorKey, a.signedBytes(), a.Signature) {
		return ErrBadAttestation
	}
	return nil
}

// Enclave is an attested execution environment. The host owns the
// *Enclave value but has no accessor for the sealed state — Invoke and
// AttestedInvoke are the only doors, mirroring the hardware boundary.
type Enclave struct {
	vendor  *Vendor
	program Program

	mu      sync.Mutex
	state   []byte
	invokes int
}

// Invokes reports how many times the host called in.
func (e *Enclave) Invokes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.invokes
}

// Invoke runs one transition. The host supplies input and receives
// output; state stays inside.
func (e *Enclave) Invoke(input []byte) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	newState, output, err := e.program.Run(e.state, input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnclaveFault, err)
	}
	e.state = newState
	e.invokes++
	return output, nil
}

// AttestedInvoke runs one transition and returns the output wrapped in
// a vendor-signed attestation bound to the verifier's nonce. This is
// the remote-attestation flow CACTI uses: the verifier learns that
// *this specific program* produced the output, and nothing else.
func (e *Enclave) AttestedInvoke(nonce, input []byte) (*Attestation, error) {
	output, err := e.Invoke(input)
	if err != nil {
		return nil, err
	}
	a := &Attestation{
		Vendor:      e.vendor.Name,
		Measurement: e.program.Measurement(),
		Nonce:       append([]byte(nil), nonce...),
		ReportData:  output,
	}
	a.Signature = ed25519.Sign(e.vendor.priv, a.signedBytes())
	return a, nil
}

// StateDigest lets tests confirm state evolution without exposing
// state contents to hosts: it returns a hex digest only.
func (e *Enclave) StateDigest() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	sum := sha256.Sum256(e.state)
	return hex.EncodeToString(sum[:8])
}
