package digitalcash

import (
	"crypto/rsa"
	"fmt"
	"sync"
	"testing"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/ledger"
)

// testKey returns the signing key the package's tests share, generated
// once: signing only reads it.
var testKey = sync.OnceValue(func() *rsa.PrivateKey {
	key, err := blindrsa.GenerateKey(1024)
	if err != nil {
		panic(err)
	}
	return key
})

func TestWithdrawSpendDeposit(t *testing.T) {
	bank := NewBank(testKey(), nil)
	bank.OpenAccount("alice", 10)
	bank.OpenAccount("bookshop", 0)

	buyer := NewBuyer("alice", bank)
	seller := NewSeller("bookshop", "retail-books", bank, nil)

	coin, err := buyer.WithdrawCoin()
	if err != nil {
		t.Fatal(err)
	}
	if bank.Balance("alice") != 9 {
		t.Errorf("alice balance = %d, want 9", bank.Balance("alice"))
	}
	if err := seller.Sell(coin, "a subversive novel", "anon-session-1"); err != nil {
		t.Fatal(err)
	}
	if bank.Balance("bookshop") != 1 {
		t.Errorf("bookshop balance = %d, want 1", bank.Balance("bookshop"))
	}
	if got := seller.Sales(); len(got) != 1 || got[0] != "a subversive novel" {
		t.Errorf("sales = %v", got)
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	bank := NewBank(testKey(), nil)
	bank.OpenAccount("alice", 10)
	buyer := NewBuyer("alice", bank)
	coin, err := buyer.WithdrawCoin()
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.Deposit("shop1", coin, "retail"); err != nil {
		t.Fatal(err)
	}
	if err := bank.Deposit("shop2", coin, "retail"); err != ErrDoubleSpend {
		t.Errorf("second deposit error = %v, want ErrDoubleSpend", err)
	}
}

func TestForgedCoinRejected(t *testing.T) {
	bank := NewBank(testKey(), nil)
	forged := Coin{Serial: []byte("forged serial, no signature"), Sig: make([]byte, 128)}
	if err := bank.Deposit("shop", forged, "retail"); err != ErrBadCoin {
		t.Errorf("deposit of forged coin error = %v", err)
	}
	seller := NewSeller("shop", "retail", bank, nil)
	if err := seller.Sell(forged, "item", "anon"); err != ErrBadCoin {
		t.Errorf("sale with forged coin error = %v", err)
	}
}

func TestWithdrawErrors(t *testing.T) {
	bank := NewBank(testKey(), nil)
	buyer := NewBuyer("nobody", bank)
	if _, err := buyer.WithdrawCoin(); err != ErrUnknownAccount {
		t.Errorf("unknown account error = %v", err)
	}
	bank.OpenAccount("poor", 0)
	buyer = NewBuyer("poor", bank)
	if _, err := buyer.WithdrawCoin(); err != ErrInsufficientFunds {
		t.Errorf("broke account error = %v", err)
	}
}

// TestDecouplingTable reproduces the paper's §3.1.1 analysis from an
// instrumented run: 5 buyers each withdraw and spend a coin; the
// measured knowledge tuples must match the published table exactly.
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	bank := NewBank(testKey(), lg)
	bank.OpenAccount("bookshop", 0)
	seller := NewSeller("bookshop", "retail-books", bank, lg)
	cls.RegisterIdentity("bookshop", "", "", core.NonSensitive)

	for i := 0; i < 5; i++ {
		who := fmt.Sprintf("buyer%d", i)
		item := fmt.Sprintf("book about forbidden topic %d", i)
		anon := fmt.Sprintf("anon-session-%d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterIdentity(anon, who, "", core.NonSensitive)
		cls.RegisterData(item, who, "", core.Sensitive)
		cls.RegisterData("retail-books", who, "", core.Partial)

		bank.OpenAccount(who, 3)
		coin, err := NewBuyer(who, bank).WithdrawCoin()
		if err != nil {
			t.Fatal(err)
		}
		if err := seller.Sell(coin, item, anon); err != nil {
			t.Fatal(err)
		}
	}

	expected := core.DigitalCash()
	// Rename the model's user to match: buyers are the users; derive for
	// the three service entities.
	measured := lg.DeriveSystem(expected)
	if diffs := core.CompareTuples(expected, measured); len(diffs) != 0 {
		t.Errorf("measured table diverges from paper:\n%s", core.RenderComparison(expected, measured))
		for _, d := range diffs {
			t.Log(d)
		}
	}
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Decoupled {
		t.Errorf("measured system not decoupled: %s", v)
	}
}

// TestUnlinkabilityUnderFullCollusion: even Signer+Verifier+Seller
// pooling all records cannot link a buyer's identity to their purchase —
// the blinding leaves no shared handle between withdrawal and deposit.
func TestUnlinkabilityUnderFullCollusion(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	bank := NewBank(testKey(), lg)
	bank.OpenAccount("shop", 0)
	seller := NewSeller("shop", "retail", bank, lg)
	for i := 0; i < 8; i++ {
		who := fmt.Sprintf("buyer%d", i)
		item := fmt.Sprintf("item-%d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(item, who, "", core.Sensitive)
		bank.OpenAccount(who, 1)
		coin, err := NewBuyer(who, bank).WithdrawCoin()
		if err != nil {
			t.Fatal(err)
		}
		if err := seller.Sell(coin, item, fmt.Sprintf("anon-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	res := adversary.LinkSubjects(lg.Observations(), []string{SignerName, VerifierName, SellerName})
	if rate := adversary.LinkageRate(res); rate != 0 {
		t.Errorf("full collusion linked %.0f%% of buyers; blind signatures should prevent all linkage", rate*100)
	}
}

func TestStats(t *testing.T) {
	bank := NewBank(testKey(), nil)
	bank.OpenAccount("a", 5)
	buyer := NewBuyer("a", bank)
	for i := 0; i < 3; i++ {
		coin, err := buyer.WithdrawCoin()
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := bank.Deposit("s", coin, "x"); err != nil {
				t.Fatal(err)
			}
		}
	}
	w, d := bank.Stats()
	if w != 3 || d != 2 {
		t.Errorf("stats = %d withdrawn, %d deposited", w, d)
	}
}

func BenchmarkWithdrawSpendDeposit(b *testing.B) {
	bank := NewBank(testKey(), nil)
	bank.OpenAccount("alice", int64(b.N)+1)
	bank.OpenAccount("shop", 0)
	buyer := NewBuyer("alice", bank)
	seller := NewSeller("shop", "retail", bank, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coin, err := buyer.WithdrawCoin()
		if err != nil {
			b.Fatal(err)
		}
		if err := seller.Sell(coin, "item", "anon"); err != nil {
			b.Fatal(err)
		}
	}
}
