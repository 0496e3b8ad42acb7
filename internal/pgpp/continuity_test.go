package pgpp

import "testing"

func TestRingDist(t *testing.T) {
	cases := []struct{ a, b, cells, want int }{
		{0, 0, 9, 0},
		{0, 1, 9, 1},
		{0, 8, 9, 1}, // wraps
		{2, 6, 9, 4},
		{0, 5, 10, 5},
	}
	for _, c := range cases {
		if got := ringDist(c.a, c.b, c.cells); got != c.want {
			t.Errorf("ringDist(%d,%d,%d) = %d, want %d", c.a, c.b, c.cells, got, c.want)
		}
	}
}

// TestContinuityAttackRelinksShuffledPseudonyms: the side-channel
// caveat measured. With per-attach shuffling the naive tracker gets
// ~1/#sessions, but chaining by spatio-temporal continuity recovers a
// large fraction of trajectories in a sparse deployment.
func TestContinuityAttackRelinksShuffledPseudonyms(t *testing.T) {
	// Sparse: few users, many cells -> few co-location collisions, so
	// continuity chaining works well for the adversary.
	cfg := SimConfig{
		Users: 4, Cells: 50, Steps: 80, SessionLen: 10, EpochLen: 40,
		Policy: ShufflePerAttach, PGPP: true, Seed: 3, GatewayKey: testKey(), Prepaid: 10,
	}
	res, err := RunSim(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive := TrackingAccuracy(res.Core.Log(), res.NetIDOwner)
	continuity := ContinuityAttack(res.Core.Log(), res.NetIDOwner, cfg.Cells, 1)
	if naive > 0.2 {
		t.Errorf("naive accuracy = %.3f, expected low under per-attach shuffle", naive)
	}
	if continuity < naive+0.3 {
		t.Errorf("continuity attack (%.3f) did not substantially beat naive (%.3f) in a sparse deployment", continuity, naive)
	}
	t.Logf("sparse: naive %.3f, continuity %.3f", naive, continuity)
}

// TestDensityDegradesContinuityAttack: co-location is the defense — in
// a dense deployment (many users per cell) the adversary's chains
// cross between users and accuracy falls toward the sparse case's
// naive level. This is PGPP's anonymity-set argument.
func TestDensityDegradesContinuityAttack(t *testing.T) {
	run := func(users, cells int) float64 {
		cfg := SimConfig{
			Users: users, Cells: cells, Steps: 80, SessionLen: 10, EpochLen: 40,
			Policy: ShufflePerAttach, PGPP: true, Seed: 3, GatewayKey: testKey(), Prepaid: 10,
		}
		res, err := RunSim(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ContinuityAttack(res.Core.Log(), res.NetIDOwner, cells, 1)
	}
	sparse := run(4, 50)
	dense := run(30, 6)
	if dense >= sparse {
		t.Errorf("continuity accuracy should fall with density: sparse %.3f, dense %.3f", sparse, dense)
	}
	t.Logf("continuity accuracy: sparse %.3f, dense %.3f", sparse, dense)
}

func TestContinuityAttackEmptyLog(t *testing.T) {
	if got := ContinuityAttack(nil, nil, 10, 1); got != 0 {
		t.Errorf("empty log accuracy = %v", got)
	}
}

// TestContinuityAttackOnPermanentIDs: with one pseudonym per user the
// attack reduces to the naive tracker (1.0).
func TestContinuityAttackOnPermanentIDs(t *testing.T) {
	cfg := smallConfig(false, ShuffleNever)
	res, err := RunSim(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ContinuityAttack(res.Core.Log(), res.NetIDOwner, cfg.Cells, 1); got != 1.0 {
		t.Errorf("accuracy on permanent IMSIs = %.3f, want 1.0", got)
	}
}
