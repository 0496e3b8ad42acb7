package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"decoupling/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenResult builds a fully populated Result by hand: comparison
// table, verdict, divergences, a quantitative table, and notes — every
// branch Render has.
func goldenResult(t *testing.T) *Result {
	t.Helper()
	expected := core.PrivacyPass()
	measured := &core.System{
		Name: expected.Name + " (measured)",
		Entities: []core.Entity{
			{Name: "Client", User: true, Knows: core.Tuple{core.SensID(), core.SensData()}},
			{Name: "Issuer", Knows: core.Tuple{core.SensID(), core.SensData()}},
			{Name: "Origin", Knows: core.Tuple{core.NonSensID(), core.SensData()}},
		},
	}
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatal(err)
	}
	return &Result{
		ID:       "EX",
		Title:    "golden fixture",
		Section:  "9.9",
		Expected: expected,
		Measured: measured,
		Diffs:    []string{"Issuer: data ⊙ (paper) vs ● (measured)"},
		Verdict:  &v,
		Tables: []Table{{
			Title:   "sweep",
			Columns: []string{"param", "linkage"},
			Rows:    [][]string{{"1", "1.00"}, {"32", "0.03"}},
		}},
		Notes: []string{"fixture note"},
		Pass:  false,
	}
}

// TestResultRenderGolden pins Result.Render's exact bytes for a result
// exercising every section: header, comparison, verdict, divergences,
// tables, and notes.
func TestResultRenderGolden(t *testing.T) {
	t.Parallel()
	checkGolden(t, "result_render_full", goldenResult(t).Render())
}

// TestResultRenderPassGolden pins the minimal passing shape (series
// experiments with tables only).
func TestResultRenderPassGolden(t *testing.T) {
	t.Parallel()
	r := &Result{
		ID:      "EX2",
		Title:   "series fixture",
		Section: "4.2",
		Tables: []Table{{
			Title:   "degrees",
			Columns: []string{"hops", "latency"},
			Rows:    [][]string{{"1", "20ms"}, {"3", "60ms"}},
		}},
		Pass: true,
	}
	checkGolden(t, "result_render_pass", r.Render())
}

// TestE8RenderGolden pins a real experiment's full report: E8 (VPN) is
// virtual-clock deterministic end to end, so its rendered bytes are a
// regression fence for the whole table pipeline.
func TestE8RenderGolden(t *testing.T) {
	t.Parallel()
	r, err := E8VPN(Ctx{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e8_render", r.Render())
}

// TestE5RenderGolden pins E5 (PGPP), whose six mobility simulations
// run as runner parts: the report must be the same bytes whether the
// parts run inline under a zero Ctx or on a runner's workers.
func TestE5RenderGolden(t *testing.T) {
	t.Parallel()
	r, err := E5PGPP(Ctx{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e5_render", r.Render())
	rr := (&Runner{Workers: 3}).Run([]Experiment{{"E5", E5PGPP}})[0]
	if rr.Err != nil {
		t.Fatal(rr.Err)
	}
	checkGolden(t, "e5_render", rr.Result.Render())
}
