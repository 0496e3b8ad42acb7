package experiments

import (
	"testing"

	"decoupling/internal/pgpp"
)

// e5RowConfigs returns the config each E5 row prints for def, built
// apart from planE5: the policy rows, then the deployment rows.
func e5RowConfigs(def pgpp.SimConfig) []pgpp.SimConfig {
	var rows []pgpp.SimConfig
	for _, p := range e5Policies {
		c := def
		c.PGPP, c.Policy = p.pgppOn, p.policy
		rows = append(rows, c)
	}
	for _, d := range e5Deployments {
		c := def
		c.Users, c.Cells, c.Policy = d.users, d.cells, pgpp.ShufflePerAttach
		rows = append(rows, c)
	}
	return rows
}

// checkE5Plan checks plan against def: no config runs twice, the table
// runs def, and every row maps to the one simulation of its config.
func checkE5Plan(t *testing.T, def pgpp.SimConfig, plan e5Plan) {
	t.Helper()
	for i := range plan.sims {
		for j := i + 1; j < len(plan.sims); j++ {
			if plan.sims[i] == plan.sims[j] {
				t.Errorf("simulations %d and %d have the same config %+v", i, j, plan.sims[i])
			}
		}
	}
	if plan.table < 0 || plan.table >= len(plan.sims) || plan.sims[plan.table] != def {
		t.Errorf("table maps to simulation %d, not to the default's", plan.table)
	}
	rows := append(append([]int{}, plan.policies...), plan.deployments...)
	want := e5RowConfigs(def)
	if len(rows) != len(want) {
		t.Fatalf("plan maps %d rows, want %d", len(rows), len(want))
	}
	for k, i := range rows {
		if i < 0 || i >= len(plan.sims) || plan.sims[i] != want[k] {
			t.Errorf("row %d maps to simulation %d, not to its config %+v", k, i, want[k])
		}
	}
}

// TestE5PlanRunsEachConfigOnce checks the premise of E5's plan: the
// table's run is the ablation row with its config, so the default
// needs six simulations, not seven.
func TestE5PlanRunsEachConfigOnce(t *testing.T) {
	t.Parallel()
	def := pgpp.DefaultSimConfig()
	plan := planE5(def)
	checkE5Plan(t, def, plan)
	if len(plan.sims) != 6 {
		t.Errorf("plan runs %d simulations, want 6", len(plan.sims))
	}
	if perAttach := plan.policies[len(e5Policies)-1]; plan.table != perAttach {
		t.Errorf("table runs simulation %d, want the per-attach row's %d", plan.table, perAttach)
	}
}

// TestE5PlanFollowsTheDefault checks that the table shares a run with
// whichever row matches the default, and gets its own when none does.
func TestE5PlanFollowsTheDefault(t *testing.T) {
	t.Parallel()
	daily := pgpp.DefaultSimConfig()
	daily.Policy = pgpp.ShuffleDaily
	plan := planE5(daily)
	checkE5Plan(t, daily, plan)
	if plan.table != plan.policies[2] || len(plan.sims) != 6 {
		t.Errorf("daily default: table runs simulation %d of %d, want the daily row's %d of 6",
			plan.table, len(plan.sims), plan.policies[2])
	}

	unmatched := pgpp.DefaultSimConfig()
	unmatched.PGPP = false
	plan = planE5(unmatched)
	checkE5Plan(t, unmatched, plan)
	for k, i := range append(append([]int{}, plan.policies...), plan.deployments...) {
		if i == plan.table {
			t.Errorf("row %d shares the table's simulation with a default that matches no row", k)
		}
	}
	if len(plan.sims) != 7 {
		t.Errorf("unmatched default: plan runs %d simulations, want 7", len(plan.sims))
	}
}
