package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runOut(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var buf, errBuf bytes.Buffer
	code := run(&buf, &errBuf, args)
	return buf.String(), code
}

func TestList(t *testing.T) {
	out, code := runOut(t, "list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"digitalcash", "mixnet", "privacypass", "odns", "pgpp", "mpr", "ppm", "vpn", "ech"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestShow(t *testing.T) {
	out, code := runOut(t, "show", "vpn")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "(▲, ●)") || !strings.Contains(out, "NOT DECOUPLED") {
		t.Errorf("show vpn output:\n%s", out)
	}
}

func TestShowUnknown(t *testing.T) {
	if _, code := runOut(t, "show", "nonsense"); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
}

func TestAnalyze(t *testing.T) {
	out, code := runOut(t, "analyze")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if strings.Count(out, "DECOUPLED") != 9 {
		t.Errorf("analyze lines:\n%s", out)
	}
}

func TestTables(t *testing.T) {
	out, code := runOut(t, "tables")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if strings.Count(out, "paper §") != 9 {
		t.Errorf("tables output missing systems:\n%s", out)
	}
}

func TestCollude(t *testing.T) {
	out, code := runOut(t, "collude", "mixnet", "Mix 1", "Receiver")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.HasPrefix(out, "NO") {
		t.Errorf("mix1+receiver should not re-couple:\n%s", out)
	}
	out, code = runOut(t, "collude", "mpr", "Relay 1", "Relay 2")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.HasPrefix(out, "YES") {
		t.Errorf("relay1+relay2 should re-couple:\n%s", out)
	}
}

func TestColludeErrors(t *testing.T) {
	if _, code := runOut(t, "collude", "mpr", "Nobody"); code != 1 {
		t.Errorf("unknown entity exit = %d", code)
	}
	if _, code := runOut(t, "collude", "mpr", "User"); code != 1 {
		t.Errorf("user-in-coalition exit = %d", code)
	}
}

func TestNoArgsUsage(t *testing.T) {
	if _, code := runOut(t); code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
	if _, code := runOut(t, "bogus-command"); code != 2 {
		t.Errorf("bad-command exit = %d, want 2", code)
	}
}

// TestAuditGolden pins the audit report bytes for every audit
// scenario, healthy and under the named flaky fault plan, and proves
// they are identical across -parallel settings: fresh HPKE keys, fresh
// connection handles, and different goroutine interleavings per
// invocation must not change a single byte. Refresh with: go test
// ./cmd/decouple -run TestAuditGolden -update
func TestAuditGolden(t *testing.T) {
	for _, tc := range []struct {
		id, faults, golden string
	}{
		{"mixnet", "", "audit_mixnet.golden"},
		{"odns", "", "audit_odns.golden"},
		{"odoh", "", "audit_odoh.golden"},
		{"mixnet", "flaky", "audit_mixnet_flaky.golden"},
		{"odns", "flaky", "audit_odns_flaky.golden"},
		{"odoh", "flaky", "audit_odoh_flaky.golden"},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			args := func(parallel string) []string {
				a := []string{"audit", "-parallel", parallel}
				if tc.faults != "" {
					a = append(a, "-faults", tc.faults)
				}
				return append(a, tc.id)
			}
			goldenPath := filepath.Join("testdata", tc.golden)
			base, code := runOut(t, args("1")...)
			if code != 0 {
				t.Fatalf("audit exit = %d", code)
			}
			if *update {
				if err := os.WriteFile(goldenPath, []byte(base), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if base != string(golden) {
				t.Errorf("audit %s output differs from golden:\n%s", tc.golden, firstDiffLine(string(golden), base))
			}
			for _, parallel := range []string{"4", "8"} {
				out, code := runOut(t, args(parallel)...)
				if code != 0 {
					t.Fatalf("audit -parallel %s exit = %d", parallel, code)
				}
				if out != base {
					t.Errorf("audit %s -parallel %s differs from -parallel 1:\n%s",
						tc.golden, parallel, firstDiffLine(base, out))
				}
			}
		})
	}
}

// TestReplayGolden pins `decouple replay` output for one committed
// minimized counterexample (the planted odoh fail-open leak, shrunk by
// the schedule explorer) and asserts the bytes are identical across
// -parallel 1/4/8.
func TestReplayGolden(t *testing.T) {
	tracePath := filepath.Join("testdata", "replay_failopen.trace.json")
	goldenPath := filepath.Join("testdata", "replay_failopen.golden")
	base, code := runOut(t, "replay", "-parallel", "1", tracePath)
	if code != 0 {
		t.Fatalf("replay exit = %d", code)
	}
	if !strings.Contains(base, "recorded oracle no-leak: REPRODUCED") {
		t.Fatalf("replay did not reproduce the recorded violation:\n%s", base)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(base), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if base != string(golden) {
		t.Errorf("replay output differs from golden:\n%s", firstDiffLine(string(golden), base))
	}
	for _, parallel := range []string{"4", "8"} {
		out, code := runOut(t, "replay", "-parallel", parallel, tracePath)
		if code != 0 {
			t.Fatalf("replay -parallel %s exit = %d", parallel, code)
		}
		if out != base {
			t.Errorf("replay -parallel %s differs from -parallel 1:\n%s",
				parallel, firstDiffLine(base, out))
		}
	}
}

func TestReplayBadInput(t *testing.T) {
	if _, code := runOut(t, "replay"); code != 1 {
		t.Errorf("replay with no file: exit = %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"format":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := runOut(t, "replay", bad); code != 1 {
		t.Errorf("replay with bad trace: exit = %d, want 1", code)
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	return "line counts differ"
}

// TestAuditExports exercises -stats (per-observer handle counts on
// stderr) and the three export formats.
func TestAuditExports(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "audit.jsonl")
	dot := filepath.Join(dir, "linkage.dot")
	graph := filepath.Join(dir, "linkage.json")
	var out, errBuf bytes.Buffer
	code := run(&out, &errBuf,
		[]string{"audit", "-stats", "-jsonl", jsonl, "-dot", dot, "-graphjson", graph, "odoh"})
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "Audit: Oblivious DNS") {
		t.Errorf("report missing header:\n%s", out.String())
	}
	stderr := errBuf.String()
	if !strings.Contains(stderr, "ledger stats:") || !strings.Contains(stderr, "handles") {
		t.Errorf("-stats output missing ledger summary:\n%s", stderr)
	}
	for _, o := range []string{"Resolver", "Oblivious Resolver", "Origin"} {
		if !strings.Contains(stderr, o) {
			t.Errorf("-stats missing observer %q:\n%s", o, stderr)
		}
	}
	for path, want := range map[string]string{
		jsonl: `"type":"audit"`,
		dot:   "graph linkage {",
		graph: `"system"`,
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("export %s: %v", path, err)
		}
		if !strings.Contains(string(b), want) {
			t.Errorf("export %s missing %q:\n%s", path, want, b)
		}
	}
}

func TestAuditErrors(t *testing.T) {
	if _, code := runOut(t, "audit", "nonsense"); code != 1 {
		t.Errorf("unknown scenario exit = %d, want 1", code)
	}
	if _, code := runOut(t, "audit"); code != 1 {
		t.Errorf("missing scenario exit = %d, want 1", code)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		// The explorer's planted fail-open probe has no healthy run, so
		// the audit CLI does not offer it.
		{[]string{"audit", "odoh-failopen"}, "unknown audit scenario"},
		// A plan that silences every sender leaves nothing to explain.
		{[]string{"audit", "-faults", "crash:mix1@0-", "mixnet"}, "plan too severe to audit"},
	} {
		var out, errBuf bytes.Buffer
		if code := run(&out, &errBuf, tc.args); code != 1 {
			t.Errorf("%v: exit = %d, want 1", tc.args, code)
		}
		if !strings.Contains(errBuf.String(), tc.want) {
			t.Errorf("%v: stderr = %q, want it to mention %q", tc.args, errBuf.String(), tc.want)
		}
	}
}
