// Command tracecheck validates the telemetry artifacts of
// `experiments` and `loadgen` runs:
//
//	tracecheck -metrics m.prom             # exposition parse + round-trip
//	tracecheck -samples s.jsonl            # run-sampler JSONL validation
//	tracecheck -spans w.jsonl              # wire-span validation
//	tracecheck -spans w.jsonl -metrics m.prom
//
// A metrics file passes when it holds at least one metric family,
// parses under the strict exposition grammar AND re-renders
// byte-identically — the writer and parser keep each other honest. A samples file (from
// `loadgen -sample`) passes when every line is a flat numeric JSON
// object carrying the run-health fields with non-decreasing
// timestamps. A spans file (wire spans from `loadgen -wirespans` or
// `experiments -wirespans`) passes when every line satisfies the
// decoupling-wirespan/v1 schema and the artifact's structural
// invariants hold: unique span ids, parent references that resolve,
// children nesting inside same-vantage parents, and the mode's
// rotation discipline — rotate artifacts must rotate at boundaries
// and never let a trace id span more than two vantages; naive
// artifacts must never record a rotation. An empty artifact of any
// kind is an error, because "nothing recorded" usually means a
// silently broken pipeline, not a healthy one; only -spans accepts
// one, with -allow-empty, since a run with wire tracing off exports no
// spans. CI runs this against the artifacts of real runs, including a
// /metrics scrape taken mid-run.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(out, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(errw)
	metricsFile := fs.String("metrics", "", "Prometheus exposition `file` to validate")
	samplesFile := fs.String("samples", "", "run-sampler JSONL `file` to validate")
	spansFile := fs.String("spans", "", "wire-span JSONL `file` to validate")
	allowEmpty := fs.Bool("allow-empty", false, "accept an empty -spans artifact (a run with tracing off or nothing sampled)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *metricsFile == "" && *samplesFile == "" && *spansFile == "" || fs.NArg() > 0 {
		fmt.Fprintln(errw, "usage: tracecheck [-metrics f.prom] [-samples f.jsonl] [-spans f.jsonl [-allow-empty]]")
		return 2
	}
	if *metricsFile != "" {
		if err := checkMetrics(out, *metricsFile); err != nil {
			fmt.Fprintf(errw, "tracecheck: %v\n", err)
			return 1
		}
	}
	if *samplesFile != "" {
		if err := checkSamples(out, *samplesFile); err != nil {
			fmt.Fprintf(errw, "tracecheck: %v\n", err)
			return 1
		}
	}
	if *spansFile != "" {
		if err := checkSpans(out, *spansFile, *allowEmpty); err != nil {
			fmt.Fprintf(errw, "tracecheck: %v\n", err)
			return 1
		}
	}
	return 0
}

// checkSpans validates a wire-span artifact: strict per-line schema,
// then the cross-span structural invariants (unique ids, resolving
// parents, nesting, the mode's rotation discipline).
func checkSpans(out io.Writer, path string, allowEmpty bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := wiretrace.ParseJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		if allowEmpty {
			fmt.Fprintf(out, "%s: empty wire-span artifact (allowed)\n", path)
			return nil
		}
		return fmt.Errorf("%s: no spans — tracing off or the exporter never ran (use -allow-empty if intended)", path)
	}
	if err := wiretrace.Check(recs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	st := wiretrace.Summarize(recs)
	fmt.Fprintf(out, "%s: %d spans (%d roots, %d rotations) across %d traces at %d vantages, mode %s, wall span %s\n",
		path, st.Spans, st.Roots, st.Rotations, st.Traces, st.Vantages, st.Mode, st.WallSpan)
	return nil
}

func checkSamples(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := telemetry.ParseSamples(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: no samples", path)
	}
	span := (recs[len(recs)-1]["t_unix_ms"] - recs[0]["t_unix_ms"]) / 1e3
	fmt.Fprintf(out, "%s: %d samples spanning %.1fs\n", path, len(recs), span)
	return nil
}

func checkMetrics(out io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fams, err := telemetry.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(fams) == 0 {
		return fmt.Errorf("%s: no metric families — the metrics exporter wrote nothing", path)
	}
	var rendered bytes.Buffer
	if err := telemetry.WriteExpFamilies(&rendered, fams); err != nil {
		return err
	}
	if !bytes.Equal(raw, rendered.Bytes()) {
		return fmt.Errorf("%s: exposition is not canonical (re-render differs)", path)
	}
	samples := 0
	for _, f := range fams {
		samples += len(f.Samples)
	}
	fmt.Fprintf(out, "%s: %d families, %d samples, canonical\n",
		path, len(fams), samples)
	return nil
}
