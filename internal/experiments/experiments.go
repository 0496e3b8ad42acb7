// Package experiments regenerates every table and figure of the paper's
// evaluation from the running implementations. Each experiment (E1-E16,
// indexed in DESIGN.md) returns a structured Result holding the paper's
// expected analysis, the empirically measured one, any divergences, and
// the quantitative series for the figure-equivalent experiments.
//
// The table experiments (E1-E9) are reproductions in the strict sense:
// the measured knowledge tuples must equal the published tables. The
// series experiments (E10-E12) reproduce the qualitative shapes of
// §4.2/§4.3/§5.1 — costs growing with the degree of decoupling, linkage
// falling with batching and padding, per-resolver knowledge falling
// with striping. The chaos experiments (E14-E16) rerun the decoupled
// stacks under injected partial failure: availability vs. fault rate,
// failover across replicas, and the fail-open counterexample the
// ledger audit must catch.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

// Table is a generic rendered result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Result is one experiment's outcome.
type Result struct {
	ID      string
	Title   string
	Section string // paper section the artifact lives in
	// Expected/Measured are set for decoupling-table experiments.
	Expected *core.System
	Measured *core.System
	// Diffs lists tuple divergences (empty on success).
	Diffs []string
	// Verdict is the analysis of the measured system, when applicable.
	Verdict *core.Verdict
	// Tables carries quantitative series for figure-equivalents.
	Tables []Table
	// Notes carries free-form observations worth recording.
	Notes []string
	// Pass is the experiment's own success criterion.
	Pass bool

	// VirtualElapsed is the simulated time consumed (zero for
	// experiments that do not drive a simnet clock). Deterministic.
	VirtualElapsed time.Duration
	// WallElapsed is the real execution time, set by the runner. It is
	// machine-dependent and therefore never rendered by Render.
	WallElapsed time.Duration
	// Ledger is the experiment's primary observation ledger, retained
	// for provenance audits (cmd/experiments -audit) and the -stats
	// summary. Diagnostic like WallElapsed: never rendered.
	Ledger *ledger.Ledger
}

// Render formats the result for terminal output / EXPERIMENTS.md.
func (r *Result) Render() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "## %s — %s (paper §%s) [%s]\n\n", r.ID, r.Title, r.Section, status)
	if r.Expected != nil && r.Measured != nil {
		b.WriteString(core.RenderComparison(r.Expected, r.Measured))
		b.WriteString("\n")
	}
	if r.Verdict != nil {
		fmt.Fprintf(&b, "verdict: %s\n\n", r.Verdict)
	}
	for _, d := range r.Diffs {
		fmt.Fprintf(&b, "DIVERGENCE: %s\n", d)
	}
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
		b.WriteString(renderTable(t))
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	return b.String()
}

func renderTable(t Table) string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2) + "|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// tableExperiment finishes a table-reproduction result: diff measured
// against expected and analyze.
func tableExperiment(r *Result) error {
	r.Diffs = core.CompareTuples(r.Expected, r.Measured)
	v, err := core.Analyze(r.Measured)
	if err != nil {
		return fmt.Errorf("%s: analyzing measured system: %w", r.ID, err)
	}
	r.Verdict = &v
	r.Pass = len(r.Diffs) == 0
	return nil
}

// ExperimentFunc runs one experiment. ctx carries the telemetry
// handle (nil when observability is off); implementations thread it to
// the layers they build and may ignore it entirely.
type ExperimentFunc func(ctx Ctx) (*Result, error)

// Experiment pairs an experiment id with its runner so callers can
// select without executing.
type Experiment struct {
	ID  string
	Run ExperimentFunc
}

// All returns every experiment in id order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1DigitalCash},
		{"E2", E2Mixnet},
		{"E3", E3PrivacyPass},
		{"E4", E4ObliviousDNS},
		{"E5", E5PGPP},
		{"E6", E6MPR},
		{"E7", E7PPM},
		{"E8", E8VPN},
		{"E9", E9ECH},
		{"E10", E10Degrees},
		{"E11", E11Striping},
		{"E12", E12TrafficAnalysis},
		{"E13", E13TEE},
		{"E14", E14ChaosAvailability},
		{"E15", E15ChaosFailover},
		{"E16", E16ChaosFailOpen},
	}
}
