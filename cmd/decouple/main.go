// Command decouple is the analysis CLI: it lists the paper's systems,
// prints any published decoupling table, runs the verdict and coalition
// analysis, answers collusion what-ifs, and runs provenance audits that
// explain WHY each measured tuple holds.
//
// Usage:
//
//	decouple list
//	decouple tables                 # every published table
//	decouple show <system-id>       # table + verdict
//	decouple analyze                # all systems, one verdict per line
//	decouple collude <system-id> <entity> [<entity>...]
//	decouple audit <scenario-id>    # run a scenario, explain every tuple
//	decouple audit -static <id|all> # derive static tuples from declared schemas
//	decouple -explain <scenario-id> # shorthand for audit
//	decouple replay <trace-file>    # re-execute an explorer counterexample
//
// Replay re-executes a minimized counterexample serialized by
// `experiments -explore -traces DIR`: the recorded case (probe or
// experiment, schedules, faults, clients) runs once, the invariant
// oracles are re-asserted, and the output states whether the recorded
// violation reproduced. Output is byte-identical across -parallel
// values.
//
// System ids: digitalcash, mixnet, privacypass, odns, pgpp, mpr, ppm,
// vpn, ech. Audit scenario ids: mixnet, odns, odoh.
//
// `audit -static` needs no run at all: it derives each role's
// knowledge tuple and the coalition closure purely from the declared
// message schemas in internal/schema/catalog, rendering the evidence
// (message.field and the flow it arrived by) behind every component.
// A scenario whose declarations read a field declared opaque to them
// (the planted odoh-snoop probe) is convicted with the role, message,
// and field named, and the command exits nonzero. `-static all`
// renders every non-probe scenario; -jsonl and -dot emit the static
// report and declared topology.
//
// Audit flags (after the subcommand):
//
//	-parallel N      client goroutines (output is byte-identical
//	                 across values; that is the point)
//	-faults p        run the scenario under an injected fault plan: a
//	                 named plan (flaky, split, tail) or a spec string
//	                 (see faults.ParsePlan); clients run through
//	                 the fail-closed resilience layer and the audit is
//	                 byte-identical for a fixed plan
//	-stats           ledger stats on stderr, with per-observer
//	                 distinct-handle counts
//	-jsonl f         machine-readable audit (JSON Lines)
//	-dot f           linkage graph in Graphviz DOT
//	-graphjson f     linkage graph as one JSON document
//
// Profiling flags (shared with cmd/experiments):
//
//	-cpuprofile f    pprof CPU profile of the whole invocation
//	-memprofile f    pprof heap profile written at exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"decoupling/internal/core"
	"decoupling/internal/experiments"
	"decoupling/internal/explore"
	"decoupling/internal/faults"
	"decoupling/internal/ledger"
	"decoupling/internal/provenance"
	"decoupling/internal/schema"
	"decoupling/internal/schema/catalog"
	"decoupling/internal/telemetry"
)

func main() {
	flag.Usage = usage
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to `file`")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to `file`")
	explain := flag.String("explain", "", "run a provenance audit of `scenario` (shorthand for the audit subcommand)")
	flag.Parse()
	code := 0
	defer func() { os.Exit(code) }()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "decouple:", err)
			code = 2
			return
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "decouple:", err)
			code = 2
			return
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "decouple:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "decouple:", err)
			}
		}()
	}
	args := flag.Args()
	if *explain != "" {
		args = append([]string{"audit", *explain}, args...)
	}
	code = run(os.Stdout, os.Stderr, args)
}

// run dispatches a command, writing output to out and diagnostics to
// errw. It returns the exit code.
func run(out, errw io.Writer, args []string) int {
	if len(args) == 0 {
		fprintUsage(errw)
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = list(out)
	case "tables":
		err = tables(out)
	case "show":
		if len(args) != 2 {
			err = fmt.Errorf("usage: decouple show <system-id>")
		} else {
			err = show(out, args[1])
		}
	case "analyze":
		err = analyzeAll(out)
	case "collude":
		if len(args) < 3 {
			err = fmt.Errorf("usage: decouple collude <system-id> <entity> [<entity>...]")
		} else {
			err = collude(out, args[1], args[2:])
		}
	case "audit":
		err = audit(out, errw, args[1:])
	case "replay":
		err = replay(out, errw, args[1:])
	default:
		fprintUsage(errw)
		return 2
	}
	if err != nil {
		fmt.Fprintln(errw, "decouple:", err)
		return 1
	}
	return 0
}

func usage() { fprintUsage(os.Stderr) }

func fprintUsage(w io.Writer) {
	fmt.Fprint(w, `decouple — analyze systems with the Decoupling Principle

  decouple list                                list the paper's systems
  decouple tables                              print every published table
  decouple show <system-id>                    print a system's table and verdict
  decouple analyze                             verdicts for every system
  decouple collude <system-id> <entity>...     can this coalition re-couple?
  decouple audit [flags] <scenario-id>         run a scenario, explain every tuple
  decouple audit -static <scenario-id|all>     derive static tuples from declared schemas
  decouple -explain <scenario-id>              shorthand for audit
  decouple replay [flags] <trace-file>         re-execute an explorer counterexample
`)
}

// replay re-executes a serialized explorer counterexample and
// re-asserts the invariant oracles against it.
func replay(out, errw io.Writer, args []string) error {
	fs := flag.NewFlagSet("decouple replay", flag.ContinueOnError)
	fs.SetOutput(errw)
	parallel := fs.Int("parallel", 1, "client goroutines; replay output is byte-identical across values")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: decouple replay [flags] <trace-file>")
	}
	b, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	t, err := explore.DecodeTrace(b)
	if err != nil {
		return err
	}
	res, err := explore.Replay(t, *parallel)
	if err != nil {
		return fmt.Errorf("replaying %s: %w", t.Probe, err)
	}
	_, err = io.WriteString(out, res.Render())
	return err
}

// audit runs a scenario and renders its provenance audit: the
// evidence chain behind every derived tuple component, the per-subject
// linkage chains, and the coalition handle-partition graph.
func audit(out, errw io.Writer, args []string) error {
	fs := flag.NewFlagSet("decouple audit", flag.ContinueOnError)
	fs.SetOutput(errw)
	static := fs.Bool("static", false, "audit declared schemas instead of a run: derive static knowledge tuples and the static coalition closure for `scenario` (or \"all\"); a schema conviction is a nonzero exit")
	parallel := fs.Int("parallel", 1, "client goroutines; audit output is byte-identical across values")
	faultSpec := fs.String("faults", "", "inject a fault `plan`: a named plan ("+strings.Join(faults.NamedPlans(), ", ")+") or a spec string like \"crash:proxy@0-;loss:*>*:0.2@10ms-\"")
	stats := fs.Bool("stats", false, "print ledger stats (per-observer observation and distinct-handle counts) to stderr")
	jsonlFile := fs.String("jsonl", "", "write the machine-readable audit (JSON Lines) to `file`")
	dotFile := fs.String("dot", "", "write the linkage graph in Graphviz DOT to `file`")
	graphFile := fs.String("graphjson", "", "write the linkage graph as one JSON document to `file`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *static {
		if *faultSpec != "" || *graphFile != "" || *stats {
			return fmt.Errorf("-faults, -stats, and -graphjson need a run; they do not apply to -static")
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: decouple audit -static [flags] <scenario-id|all> (one of: %s)", strings.Join(catalog.IDs(), ", "))
		}
		return staticAudit(out, errw, fs.Arg(0), *jsonlFile, *dotFile)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: decouple audit [flags] <scenario-id> (one of: %s)", scenarioIDs())
	}
	sc, ok := experiments.FindScenario(fs.Arg(0))
	if !ok || sc.Run == nil {
		return fmt.Errorf("unknown audit scenario %q (try: %s)", fs.Arg(0), scenarioIDs())
	}

	plan, err := faults.PlanFromSpec(*faultSpec)
	if err != nil {
		return err
	}

	// The phase marker is on so ledger observations join their
	// protocol phase.
	tel := telemetry.New(true, nil)
	var lg *ledger.Ledger
	if plan != nil {
		lg, err = sc.RunFaults(experiments.Ctx{Tel: tel}, *parallel, sc.MaxClients, plan)
	} else {
		lg, err = sc.Run(experiments.Ctx{Tel: tel}, *parallel)
	}
	if err != nil {
		return fmt.Errorf("scenario %s: %w", sc.ID, err)
	}
	a, err := provenance.Derive(lg, sc.Expected())
	if err != nil {
		return err
	}
	if err := provenance.WriteReport(out, a); err != nil {
		return err
	}
	if *stats {
		st := lg.Stats()
		fmt.Fprintf(errw, "ledger stats: %d observations\n", st.Total)
		for _, o := range st.Observers {
			fmt.Fprintf(errw, "  %-24s %6d obs %6d handles\n", o.Observer, o.Observations, o.Handles)
		}
	}
	for _, f := range []struct {
		path  string
		write func(io.Writer, *provenance.Audit) error
	}{
		{*jsonlFile, provenance.WriteJSONL},
		{*dotFile, provenance.WriteDOT},
		{*graphFile, provenance.WriteGraphJSON},
	} {
		if f.path == "" {
			continue
		}
		if err := writeFile(f.path, a, f.write); err != nil {
			return err
		}
	}
	return nil
}

// staticAudit derives the static knowledge tuples and coalition
// closure for one declared scenario (or "all" non-probe scenarios)
// and renders the deterministic report. A schema conviction — a role
// declaring a read of a field declared opaque to it — surfaces as the
// returned error, naming the role, message, and field, so planted
// probes exit nonzero by construction. No network, ledger, or run is
// involved; the output is byte-identical across invocations and any
// -parallel setting.
func staticAudit(out, errw io.Writer, id, jsonlFile, dotFile string) error {
	ids := []string{id}
	if id == "all" {
		ids = ids[:0]
		for _, sid := range catalog.IDs() {
			if catalog.IsProbe(sid) {
				fmt.Fprintf(errw, "decouple: skipping planted probe %q (convicts by design; audit it directly)\n", sid)
				continue
			}
			ids = append(ids, sid)
		}
	}
	var derived []*schema.Static
	for _, sid := range ids {
		sc, err := catalog.Get(sid)
		if err != nil {
			return err
		}
		st, err := schema.Derive(sc)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sid, err)
		}
		derived = append(derived, st)
	}
	for i, st := range derived {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := schema.WriteReport(out, st); err != nil {
			return err
		}
	}
	for _, f := range []struct {
		path  string
		write func(io.Writer, *schema.Static) error
	}{
		{jsonlFile, schema.WriteJSONL},
		{dotFile, schema.WriteDOT},
	} {
		if f.path == "" {
			continue
		}
		fh, err := os.Create(f.path)
		if err != nil {
			return err
		}
		for _, st := range derived {
			if err := f.write(fh, st); err != nil {
				fh.Close()
				return err
			}
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, a *provenance.Audit, write func(io.Writer, *provenance.Audit) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func scenarioIDs() string {
	var ids []string
	for _, sc := range experiments.Scenarios() {
		if sc.Run != nil {
			ids = append(ids, sc.ID)
		}
	}
	return strings.Join(ids, ", ")
}

func sortedIDs() []string {
	reg := core.Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func list(w io.Writer) error {
	reg := core.Registry()
	for _, id := range sortedIDs() {
		s := reg[id]
		fmt.Fprintf(w, "%-12s §%-6s %s\n", id, s.Section, s.Name)
	}
	return nil
}

func tables(w io.Writer) error {
	for _, id := range sortedIDs() {
		if err := show(w, id); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func lookup(id string) (*core.System, error) {
	s, ok := core.Registry()[id]
	if !ok {
		return nil, fmt.Errorf("unknown system %q (try: %s)", id, strings.Join(sortedIDs(), ", "))
	}
	return s, nil
}

func show(w io.Writer, id string) error {
	s, err := lookup(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s (paper §%s)\n\n", s.Name, s.Section)
	fmt.Fprint(w, core.RenderTable(s))
	v, err := core.Analyze(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s\n", v)
	if s.Notes != "" {
		fmt.Fprintf(w, "\n%s\n", s.Notes)
	}
	return nil
}

func analyzeAll(w io.Writer) error {
	reg := core.Registry()
	for _, id := range sortedIDs() {
		v, err := core.Analyze(reg[id])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %s\n", id, v)
	}
	return nil
}

func collude(w io.Writer, id string, members []string) error {
	s, err := lookup(id)
	if err != nil {
		return err
	}
	// Reduce the system to the given coalition by marking everyone else
	// (except the user) as absent, then re-analyze with only those
	// entities as potential colluders.
	var coalition []core.Entity
	for _, name := range members {
		e := s.Entity(name)
		if e == nil {
			return fmt.Errorf("system %q has no entity %q", id, name)
		}
		if e.User {
			return fmt.Errorf("%q is the user; collusion is among service entities", name)
		}
		coalition = append(coalition, *e)
	}
	reduced := &core.System{
		Name:          s.Name + " (coalition)",
		Section:       s.Section,
		SharedSecrets: s.SharedSecrets,
	}
	reduced.Entities = append(reduced.Entities, *s.User())
	reduced.Entities = append(reduced.Entities, coalition...)
	v, err := core.Analyze(reduced)
	if err != nil {
		return err
	}
	if v.Degree > 0 && v.Degree <= len(coalition) {
		fmt.Fprintf(w, "YES — {%s} can re-couple identity with data (min sub-coalition: %s)\n",
			strings.Join(members, ", "), strings.Join(v.MinCoalition, "+"))
	} else {
		fmt.Fprintf(w, "NO — {%s} cannot re-couple identity with data\n", strings.Join(members, ", "))
	}
	return nil
}
