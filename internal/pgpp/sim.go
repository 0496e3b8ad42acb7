package pgpp

import (
	"crypto/rsa"
	"fmt"
	mrand "math/rand"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

// SimConfig parameterizes a mobility simulation.
type SimConfig struct {
	Users      int
	Cells      int
	Steps      int
	SessionLen int // steps between re-attaches
	EpochLen   int // pseudonym lifetime for ShuffleDaily
	Policy     ShufflePolicy
	PGPP       bool // false = baseline cellular (bundled billing, permanent IMSI)
	Seed       int64
	KeyBits    int // gateway blind-signing modulus; small in tests/benches
	Prepaid    int // tokens purchased up front per device
}

// DefaultSimConfig returns the E5 experiment defaults.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Users: 50, Cells: 25, Steps: 200, SessionLen: 20, EpochLen: 100,
		Policy: ShufflePerAttach, PGPP: true, Seed: 1, KeyBits: 1024, Prepaid: 12,
	}
}

// SimResult carries the ground truth and the instrumented parties.
type SimResult struct {
	Config SimConfig
	// Traces is each user's true trajectory (cell per step).
	Traces map[string][]int
	// NetIDOwner is the scoring ground truth: pseudonym -> user.
	NetIDOwner map[string]string
	Core       *Core
	Devices    []*Device
}

// RunSim provisions cfg.Users devices, walks them over the cell grid
// for cfg.Steps steps, re-attaching every cfg.SessionLen steps, and
// returns the ground truth plus the instrumented core. Only a PGPP run
// has a gateway: baseline devices authenticate by IMSI, so no signing
// key is generated for them.
//
// If lg is non-nil, the run also registers classification ground truth:
// accounts are sensitive H-identities, permanent IMSIs sensitive
// N-identities, pseudonyms non-sensitive N-identities, and presence
// strings sensitive data.
func RunSim(cfg SimConfig, lg *ledger.Ledger) (*SimResult, error) {
	if cfg.Users <= 0 || cfg.Cells <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("pgpp: degenerate simulation config %+v", cfg)
	}
	if cfg.SessionLen <= 0 {
		cfg.SessionLen = cfg.Steps
	}
	rng := mrand.New(mrand.NewSource(cfg.Seed))

	var gw *Gateway
	var gwKey *rsa.PublicKey
	if cfg.PGPP {
		var err error
		if gw, err = NewGateway(cfg.KeyBits, lg); err != nil {
			return nil, err
		}
		gwKey = gw.PublicKey()
	}
	nc := NewCore(cfg.PGPP, gwKey, lg)

	res := &SimResult{
		Config:     cfg,
		Traces:     map[string][]int{},
		NetIDOwner: map[string]string{},
		Core:       nc,
	}

	var cls *ledger.Classifier
	if lg != nil {
		cls = lg.Classifier()
	}

	for u := 0; u < cfg.Users; u++ {
		account := fmt.Sprintf("user%02d", u)
		if cls != nil {
			// Classification ground truth must precede the first
			// observation (device provisioning buys tokens immediately).
			cls.RegisterIdentity(account, account, "H", core.Sensitive)
		}
		d, err := NewDevice(account, cfg.Policy, gw, nc, rng, cfg.Prepaid)
		if err != nil {
			return nil, err
		}
		d.EpochLen = cfg.EpochLen
		res.Devices = append(res.Devices, d)
		if cls != nil {
			cls.RegisterIdentity(d.IMSI, account, "N", core.Sensitive)
		}
	}

	// Random-walk mobility with per-session attach.
	positions := make([]int, cfg.Users)
	for u := range positions {
		positions[u] = rng.Intn(cfg.Cells)
	}
	for step := 0; step < cfg.Steps; step++ {
		for u, d := range res.Devices {
			// Walk: stay, or step +-1 on the cell ring.
			switch rng.Intn(3) {
			case 0:
				positions[u] = (positions[u] + 1) % cfg.Cells
			case 1:
				positions[u] = (positions[u] - 1 + cfg.Cells) % cfg.Cells
			}
			cell := positions[u]
			account := d.Account
			res.Traces[account] = append(res.Traces[account], cell)
			if cls != nil {
				cls.RegisterData(fmt.Sprintf("presence:%d@%d", cell, step), account, "", core.Sensitive)
			}
			if step%cfg.SessionLen == 0 {
				if err := d.Attach(cell, step); err != nil {
					return nil, fmt.Errorf("pgpp: attach user %s step %d: %w", account, step, err)
				}
				if cls != nil && cfg.PGPP {
					cls.RegisterIdentity(d.NetID(), account, "N", core.NonSensitive)
				}
				res.NetIDOwner[d.NetID()] = account
			} else {
				if err := d.Move(cell, step); err != nil {
					return nil, fmt.Errorf("pgpp: move user %s step %d: %w", account, step, err)
				}
			}
		}
	}
	return res, nil
}

// TrackingAccuracy scores the core-log adversary: for each user, the
// fraction of their location events that fall under their single most
// populous network identity — i.e. how complete a trajectory the log
// reconstructs without any external linking information. Permanent
// identifiers give 1.0; per-attach shuffling approaches
// SessionLen/Steps.
func TrackingAccuracy(log []LocationEvent, owner map[string]string) float64 {
	perUserPerNet := map[string]map[string]int{}
	totals := map[string]int{}
	for _, e := range log {
		user, ok := owner[e.NetID]
		if !ok {
			continue
		}
		if perUserPerNet[user] == nil {
			perUserPerNet[user] = map[string]int{}
		}
		perUserPerNet[user][e.NetID]++
		totals[user]++
	}
	if len(totals) == 0 {
		return 0
	}
	sum := 0.0
	for user, total := range totals {
		best := 0
		for _, c := range perUserPerNet[user] {
			if c > best {
				best = c
			}
		}
		sum += float64(best) / float64(total)
	}
	return sum / float64(len(totals))
}
