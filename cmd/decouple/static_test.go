package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decoupling/internal/schema/catalog"
)

// TestAuditStaticGolden pins the static audit bytes for the ODoH and
// OHTTP scenarios. There is no run behind the report — it is derived
// from declarations alone — so beyond byte-stability across -parallel
// settings (asserted here), any diff at all is an intentional schema
// change. Refresh with: go test ./cmd/decouple -run TestAuditStaticGolden -update
func TestAuditStaticGolden(t *testing.T) {
	for _, id := range []string{"odoh", "ohttp"} {
		t.Run(id, func(t *testing.T) {
			goldenPath := filepath.Join("testdata", "audit_static_"+id+".golden")
			base, code := runOut(t, "audit", "-static", "-parallel", "1", id)
			if code != 0 {
				t.Fatalf("audit -static exit = %d", code)
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
				t.Errorf("audit -static %s differs from golden:\n%s", id, firstDiffLine(string(golden), base))
			}
			for _, parallel := range []string{"4", "8"} {
				out, code := runOut(t, "audit", "-static", "-parallel", parallel, id)
				if code != 0 {
					t.Fatalf("audit -static -parallel %s exit = %d", parallel, code)
				}
				if out != base {
					t.Errorf("audit -static -parallel %s differs from -parallel 1:\n%s",
						parallel, firstDiffLine(base, out))
				}
			}
		})
	}
}

// TestAuditStaticProbeConvicted pins the planted negative control at
// the CLI surface: auditing the snooping-proxy scenario must exit
// nonzero with the handler, message, and field named on stderr.
func TestAuditStaticProbeConvicted(t *testing.T) {
	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{"audit", "-static", "odoh-snoop"})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errw.String())
	}
	for _, want := range []string{`role "Resolver"`, "odoh_query.sealed_query", "declared opaque"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("conviction missing %q:\n%s", want, errw.String())
		}
	}
}

// TestAuditStaticAll sweeps every declared scenario: probes are skipped
// loudly (they convict by design), everything else renders.
func TestAuditStaticAll(t *testing.T) {
	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{"audit", "-static", "all"})
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errw.String())
	}
	for _, id := range catalog.IDs() {
		header := "Static audit: " + id + " —"
		if catalog.IsProbe(id) {
			if strings.Contains(out.String(), header) {
				t.Errorf("probe %s rendered in -static all", id)
			}
			if !strings.Contains(errw.String(), "skipping planted probe") {
				t.Errorf("probe %s skipped silently:\n%s", id, errw.String())
			}
			continue
		}
		if !strings.Contains(out.String(), header) {
			t.Errorf("scenario %s missing from -static all", id)
		}
	}
}

func TestAuditStaticExports(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "static.jsonl")
	dot := filepath.Join(dir, "static.dot")
	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{"audit", "-static", "-jsonl", jsonl, "-dot", dot, "mixnet"})
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errw.String())
	}
	for path, wants := range map[string][]string{
		jsonl: {`"type":"static"`, `"type":"static_entity"`, `"type":"static_partition"`},
		dot:   {"digraph static {", `"Mix 1" -> "Mix 2"`},
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("export %s: %v", path, err)
		}
		for _, want := range wants {
			if !strings.Contains(string(b), want) {
				t.Errorf("export %s missing %q:\n%s", path, want, b)
			}
		}
	}
}

func TestAuditStaticErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"audit", "-static", "nonsense"}); code != 1 {
		t.Errorf("unknown scenario exit = %d, want 1", code)
	}
	if code := run(&out, &errw, []string{"audit", "-static"}); code != 1 {
		t.Errorf("missing scenario exit = %d, want 1", code)
	}
	if code := run(&out, &errw, []string{"audit", "-static", "-faults", "flaky", "odoh"}); code != 1 {
		t.Errorf("-static -faults exit = %d, want 1", code)
	}
	if code := run(&out, &errw, []string{"audit", "-static", "-stats", "odoh"}); code != 1 {
		t.Errorf("-static -stats exit = %d, want 1", code)
	}
}
