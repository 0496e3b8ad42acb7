// Package digitalcash implements Chaum's blind-signature digital
// currency, the paper's §3.1.1 example of the Decoupling Principle in
// access and authentication.
//
// Flow:
//
//	Withdraw:  the buyer blinds a fresh coin serial and presents it with
//	           their account; the bank's Signer role debits the account
//	           and blind-signs without seeing the serial.
//	Spend:     the buyer pays a seller with the unblinded coin; the
//	           seller verifies the bank's signature offline and learns
//	           what was bought but not who bought it.
//	Deposit:   the seller deposits the coin; the bank's Verifier role
//	           checks the signature and the double-spend set and credits
//	           the seller.
//
// The Signer and Verifier are the same organization, yet the blinding
// makes withdrawal and deposit cryptographically unlinkable — the
// paper's point that decoupling can be enforced within a single entity
// by protocol structure alone.
package digitalcash

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/ledger"
)

// Entity names used for ledger observations, matching the paper table.
const (
	SignerName   = "Signer (Bank)"
	VerifierName = "Verifier (Bank)"
	SellerName   = "Seller"
)

// Errors returned by the bank.
var (
	ErrUnknownAccount    = errors.New("digitalcash: unknown account")
	ErrInsufficientFunds = errors.New("digitalcash: insufficient funds")
	ErrDoubleSpend       = errors.New("digitalcash: coin already deposited")
	ErrBadCoin           = errors.New("digitalcash: invalid coin signature")
)

// Coin is a bearer instrument: a random serial and the bank's blind
// signature over it. Whoever holds a valid coin can deposit it once.
type Coin struct {
	Serial []byte
	Sig    []byte
}

// SerialHex returns the serial as a hex string (ledger value form).
func (c Coin) SerialHex() string { return hex.EncodeToString(c.Serial) }

// Bank plays both the Signer and Verifier roles of the paper's table.
type Bank struct {
	key *rsa.PrivateKey
	lg  *ledger.Ledger

	mu        sync.Mutex
	accounts  map[string]int64
	spent     map[string]bool
	withdrawn int
	deposited int
}

// NewBank creates a bank that signs coins with key, a key from
// blindrsa.GenerateKey. lg may be nil (no instrumentation).
func NewBank(key *rsa.PrivateKey, lg *ledger.Ledger) *Bank {
	return &Bank{
		key:      key,
		lg:       lg,
		accounts: map[string]int64{},
		spent:    map[string]bool{},
	}
}

// PublicKey returns the bank's coin-verification key.
func (b *Bank) PublicKey() *rsa.PublicKey { return &b.key.PublicKey }

// OpenAccount creates (or tops up) an account.
func (b *Bank) OpenAccount(account string, balance int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.accounts[account] += balance
}

// Balance returns an account's balance.
func (b *Bank) Balance(account string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.accounts[account]
}

// Withdraw performs the Signer role: it authenticates the account,
// debits one unit, and blind-signs the blinded serial. The signer sees
// the customer's identity but only an information-free blinded value.
func (b *Bank) Withdraw(account string, blinded []byte) ([]byte, error) {
	b.mu.Lock()
	bal, ok := b.accounts[account]
	if !ok {
		b.mu.Unlock()
		return nil, ErrUnknownAccount
	}
	if bal < 1 {
		b.mu.Unlock()
		return nil, ErrInsufficientFunds
	}
	b.accounts[account]--
	b.withdrawn++
	n := b.withdrawn
	b.mu.Unlock()

	if b.lg != nil {
		h := fmt.Sprintf("withdrawal-%d", n)
		b.lg.SawIdentity(SignerName, account, h)
		b.lg.SawData(SignerName, "blinded:"+hex.EncodeToString(blinded[:8]), h)
	}
	return blindrsa.BlindSign(b.key, blinded)
}

// Deposit performs the Verifier role: it verifies the coin, rejects
// double spends, and credits the depositing seller. category is the
// merchant-supplied purchase category — the partially sensitive datum
// (⊙/●) the paper's table attributes to the verifier.
func (b *Bank) Deposit(sellerAccount string, coin Coin, category string) error {
	if err := blindrsa.Verify(&b.key.PublicKey, coin.Serial, coin.Sig); err != nil {
		return ErrBadCoin
	}
	serial := coin.SerialHex()
	b.mu.Lock()
	if b.spent[serial] {
		b.mu.Unlock()
		return ErrDoubleSpend
	}
	b.spent[serial] = true
	b.accounts[sellerAccount]++
	b.deposited++
	b.mu.Unlock()

	if b.lg != nil {
		h := "deposit-" + serial[:16]
		b.lg.SawIdentity(VerifierName, sellerAccount, h)
		b.lg.SawData(VerifierName, category, h)
		b.lg.SawData(VerifierName, "serial:"+serial[:16], h)
	}
	return nil
}

// Stats reports lifetime withdrawal and deposit counts.
func (b *Bank) Stats() (withdrawn, deposited int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.withdrawn, b.deposited
}

// Buyer is a customer wallet.
type Buyer struct {
	Account string
	bank    *Bank
}

// NewBuyer binds a wallet to a bank account.
func NewBuyer(account string, bank *Bank) *Buyer {
	return &Buyer{Account: account, bank: bank}
}

// WithdrawCoin runs the full blind-issuance round trip and returns a
// spendable coin.
func (u *Buyer) WithdrawCoin() (Coin, error) {
	serial := make([]byte, 32)
	if _, err := rand.Read(serial); err != nil {
		return Coin{}, fmt.Errorf("digitalcash: serial: %w", err)
	}
	blinded, st, err := blindrsa.Blind(u.bank.PublicKey(), serial)
	if err != nil {
		return Coin{}, err
	}
	blindSig, err := u.bank.Withdraw(u.Account, blinded)
	if err != nil {
		return Coin{}, err
	}
	sig, err := blindrsa.Finalize(u.bank.PublicKey(), st, blindSig)
	if err != nil {
		return Coin{}, err
	}
	return Coin{Serial: serial, Sig: sig}, nil
}

// Seller accepts coins for goods and deposits them.
type Seller struct {
	Account  string
	Category string // merchant category reported at deposit
	bank     *Bank
	lg       *ledger.Ledger

	mu    sync.Mutex
	sales []string
}

// NewSeller creates a seller depositing into sellerAccount.
func NewSeller(account, category string, bank *Bank, lg *ledger.Ledger) *Seller {
	return &Seller{Account: account, Category: category, bank: bank, lg: lg}
}

// Sell verifies the coin offline, records the sale of item to an
// anonymous customer session, and deposits the coin. The seller
// observes what was bought (●) but only an anonymous session identity
// (△).
func (s *Seller) Sell(coin Coin, item, anonSession string) error {
	if err := blindrsa.Verify(s.bank.PublicKey(), coin.Serial, coin.Sig); err != nil {
		return ErrBadCoin
	}
	if s.lg != nil {
		h := "purchase-" + coin.SerialHex()[:16]
		s.lg.SawIdentity(SellerName, anonSession, h)
		s.lg.SawData(SellerName, item, h, "deposit-"+coin.SerialHex()[:16])
	}
	s.mu.Lock()
	s.sales = append(s.sales, item)
	s.mu.Unlock()
	return s.bank.Deposit(s.Account, coin, s.Category)
}

// Sales returns the items sold so far.
func (s *Seller) Sales() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.sales...)
}
