package experiments

import (
	"fmt"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
	"decoupling/internal/tee"
)

// E13TEE is the §4.3 extension experiment: Trusted Execution
// Environments as a decoupling mechanism. The paper argues TEEs move
// the locus of trust to the hardware vendor and names two systems,
// CACTI (client-side private rate-limiting state instead of CAPTCHAs)
// and Phoenix (keyless CDNs). Both run here, and the measured CDN
// operator tuple is compared against the traditional-CDN baseline.
func E13TEE(ctx Ctx) (*Result, error) {
	tel := ctx.Tel
	r := &Result{ID: "E13", Title: "TEEs as a decoupling mechanism (CACTI + Phoenix)", Section: "4.3"}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	lg.Instrument(tel)

	vendor, err := tee.NewVendor("AcmeSilicon")
	if err != nil {
		return nil, err
	}

	// --- CACTI: rate proofs instead of CAPTCHAs ---
	enclave := vendor.Manufacture(tee.CACTIProgram())
	origin := tee.NewCACTIOrigin("site.example", vendor.PublicKey(), 5, lg)
	admitted, denied := 0, 0
	for i := 0; i < 8; i++ {
		if err := origin.Admit("anon-conn", enclave, fmt.Sprintf("/page/%d", i)); err != nil {
			denied++
		} else {
			admitted++
		}
	}
	if admitted != 5 || denied != 3 {
		r.Diffs = append(r.Diffs, fmt.Sprintf("CACTI admitted %d / denied %d, want 5/3 at threshold 5", admitted, denied))
	}
	r.Notes = append(r.Notes, fmt.Sprintf("CACTI: %d admitted, %d rate-limited; origin never saw the counter", admitted, denied))

	// --- Phoenix: keyless CDN ---
	cdnEnclave := vendor.Manufacture(tee.PhoenixProgram())
	publisher, err := tee.NewPhoenixOrigin("publisher.example")
	if err != nil {
		return nil, err
	}
	if err := publisher.Provision(vendor.PublicKey(), cdnEnclave, []byte("subscriber-only article")); err != nil {
		return nil, err
	}
	cdn := tee.NewPhoenixCDN("CDN Operator", cdnEnclave, lg)
	for i := 0; i < 4; i++ {
		who := fmt.Sprintf("reader-%d", i)
		path := fmt.Sprintf("/articles/%d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(path, who, "", core.Sensitive)
		if _, err := tee.PhoenixRequest(publisher.PublicKey(), cdn, who, path); err != nil {
			return nil, err
		}
	}

	// Measured: the keyless CDN operator is (▲, ⊙); the traditional CDN
	// baseline is (▲, ●).
	operator := lg.DeriveTuple("CDN Operator", core.Tuple{core.NonSensID(), core.NonSensData()})
	want := core.Tuple{core.SensID(), core.NonSensData()}
	if !operator.Equal(want) {
		r.Diffs = append(r.Diffs, fmt.Sprintf("keyless CDN operator tuple = %s, want %s", operator.Symbol(), want.Symbol()))
	}
	r.Tables = append(r.Tables, Table{
		Title:   "CDN operator knowledge: keyless (measured) vs traditional (model)",
		Columns: []string{"architecture", "CDN operator tuple", "decoupled"},
		Rows: [][]string{
			{"Phoenix keyless CDN", operator.Symbol(), "yes (trust shifts to the hardware vendor)"},
			{"traditional CDN", core.Tuple{core.SensID(), core.SensData()}.Symbol(), "no (operator terminates TLS)"},
		},
	})
	r.Notes = append(r.Notes, "the enclave host observed only ciphertext; attestation bound the running code to the vendor's signature")
	r.Ledger = lg
	r.Pass = len(r.Diffs) == 0
	return r, nil
}
