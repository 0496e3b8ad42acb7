package transport

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wallClockAllowlist names the only non-test files permitted to touch
// the wall clock directly. Everything else — protocol handlers, mixes,
// proxies, the ledger — must route timing through a Transport's
// Now/After, so the same code is deterministic under the simulator and
// honest under real sockets. A new entry here needs the same kind of
// justification these have.
var wallClockAllowlist = map[string]string{
	"internal/experiments/runner.go": "wall-elapsed reporting and queue-wait telemetry for the human-facing runner",
	"internal/mpr/certs.go":          "X.509 NotBefore/NotAfter; certificate validity is wall time by definition",
	"internal/nettransport/":         "the real transport: its whole job is binding the Transport clock to the wall",
	"internal/telemetry/sampler.go":  "wall-clock run-health sampling: observability measures the real world, and virtual timestamps on a live feed would be a lie",
	"cmd/loadgen/":                   "wall-clock benchmark harness measuring the real transport",
}

// protocolPackages are the packages whose determinism the explorer's
// replay fixpoint depends on; no allowlist entry may ever cover them.
var protocolPackages = []string{
	"internal/simnet/",
	"internal/mixnet/",
	"internal/odoh/",
	"internal/core/",
	"internal/ledger/",
	"internal/resilience/",
	"internal/explore/",
}

// scanWallClock walks the internal/ and cmd/ trees under root and
// returns one "path:line: code" string per wall-clock call found
// outside the allowlist. The scan is textual but comment-stripped, so
// documentation may mention the forbidden calls freely.
func scanWallClock(root string, allowlist map[string]string) ([]string, error) {
	var violations []string
	for _, top := range []string{"internal", "cmd"} {
		dir := filepath.Join(root, top)
		if _, err := os.Stat(dir); os.IsNotExist(err) {
			continue
		}
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			for allowed := range allowlist {
				if rel == allowed || (strings.HasSuffix(allowed, "/") && strings.HasPrefix(rel, allowed)) {
					return nil
				}
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(src), "\n") {
				code := line
				if idx := strings.Index(code, "//"); idx >= 0 {
					code = code[:idx]
				}
				if strings.Contains(code, "time.Now()") || strings.Contains(code, "time.Sleep(") {
					violations = append(violations, fmt.Sprintf("%s:%d: %s", rel, i+1, strings.TrimSpace(line)))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return violations, nil
}

// TestNoWallClockInProtocolCode is the regression guard for the clock
// audit: no shared protocol path may call time.Now() or time.Sleep.
// When one of those leaks into handler code, virtual-time runs stop
// being deterministic (breaking the explorer's replay fixpoint) and
// equivalence between transports quietly erodes.
func TestNoWallClockInProtocolCode(t *testing.T) {
	violations, err := scanWallClock(filepath.Join("..", ".."), wallClockAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("wall clock call in shared protocol code: %s\n"+
			"route timing through the Transport clock (Now/After), or add an allowlist entry with a justification", v)
	}
}

// TestScanCatchesViolations proves the guard has teeth: a synthetic
// tree with a wall-clock call planted in a simnet-shaped package must
// be flagged, with or without an unrelated allowlist entry, and an
// entry covering the file must silence exactly it.
func TestScanCatchesViolations(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "simnet")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package simnet

import "time"

// time.Now() in a comment must not trip the scan.
func now() time.Time { return time.Now() }

func nap() { time.Sleep(time.Millisecond) }
`
	if err := os.WriteFile(filepath.Join(dir, "sim.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// A test file with the same calls must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "sim_test.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	violations, err := scanWallClock(root, map[string]string{"internal/other/": "unrelated"})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 2 {
		t.Fatalf("planted 2 wall-clock calls, scan found %d: %v", len(violations), violations)
	}
	for _, v := range violations {
		if !strings.HasPrefix(v, "internal/simnet/sim.go:") {
			t.Errorf("violation names wrong file: %s", v)
		}
	}

	silenced, err := scanWallClock(root, map[string]string{"internal/simnet/sim.go": "test"})
	if err != nil {
		t.Fatal(err)
	}
	if len(silenced) != 0 {
		t.Fatalf("allowlisted file still flagged: %v", silenced)
	}
}

// TestAllowlistNeverCoversProtocolPackages pins the boundary the
// sampler's new entry must not blur: observability may read the wall
// clock, the deterministic protocol and simulator packages may not,
// and no future allowlist entry may quietly change that.
func TestAllowlistNeverCoversProtocolPackages(t *testing.T) {
	for entry := range wallClockAllowlist {
		for _, pkg := range protocolPackages {
			if strings.HasPrefix(entry, pkg) || strings.HasPrefix(pkg, entry) {
				t.Errorf("allowlist entry %q covers protocol package %q; these must stay on the virtual clock", entry, pkg)
			}
		}
	}
}

// TestAllowlistEntriesExist keeps the allowlist honest: a stale entry
// means the justification no longer covers anything.
func TestAllowlistEntriesExist(t *testing.T) {
	root := filepath.Join("..", "..")
	for entry := range wallClockAllowlist {
		p := filepath.Join(root, filepath.FromSlash(strings.TrimSuffix(entry, "/")))
		if _, err := os.Stat(p); err != nil {
			t.Errorf("allowlist entry %q does not exist: %v", entry, err)
		}
	}
}
