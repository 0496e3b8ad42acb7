package simnet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"decoupling/internal/faults"
)

// FuzzParseFaultPlan checks that the fault-plan grammar never panics
// and that Spec() is a canonical serializer: whatever parses must
// re-serialize to a spec that parses to the same canonical form (the
// round-trip that lets plans ride inside replay traces).
func FuzzParseFaultPlan(f *testing.F) {
	// Seeds: every production, the named plans, and known-tricky shapes.
	f.Add("crash:mix2@25ms-120ms")
	f.Add("crash:node@0s-")
	f.Add("partition:a<>b@30ms-80ms")
	f.Add("partition:exit>origin@0s-1s")
	f.Add("loss:*>mix1:0.3@0-")
	f.Add("loss:a>b:1@1ms-2ms")
	f.Add("spike:exit>origin:40ms@50ms-90ms")
	f.Add("crash:mix2@25ms-120ms;loss:*>mix1:0.3@0-;spike:exit>origin:40ms@50ms-90ms")
	for _, name := range faults.NamedPlans() {
		p, err := faults.PlanFromSpec(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.Spec())
	}
	f.Add(";;;")
	f.Add("crash:@1ms-")
	f.Add("loss:a>b:NaN@0-")
	f.Add("crash:a@1ms-;crash:a@0-5ms") // overlapping windows
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := faults.ParsePlan(spec)
		if err != nil {
			if p != nil {
				t.Fatalf("ParsePlan(%q) returned plan AND error %v", spec, err)
			}
			return
		}
		canon := p.Spec()
		p2, err := faults.ParsePlan(canon)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if got := p2.Spec(); got != canon {
			t.Fatalf("Spec not canonical: %q -> %q -> %q", spec, canon, got)
		}
		if len(p2.Faults()) != len(p.Faults()) {
			t.Fatalf("round-trip changed fault count: %q %d -> %d", spec, len(p.Faults()), len(p2.Faults()))
		}
	})
}

// FuzzFaultWindowQueries checks the window predicates stay panic-free
// and agree with the half-open [From, Until) contract for any parsed
// plan and probe time.
func FuzzFaultWindowQueries(f *testing.F) {
	f.Add("crash:n@10ms-20ms", int64(15_000_000))
	f.Add("loss:*>*:0.5@0-", int64(0))
	f.Add("spike:a>b:5ms@1ms-", int64(1_000_000))
	f.Fuzz(func(t *testing.T, spec string, at int64) {
		p, err := faults.ParsePlan(spec)
		if err != nil {
			return
		}
		tm := time.Duration(at)
		all := p.Faults()
		for _, fl := range all {
			if fl.Kind != faults.FaultCrash {
				continue
			}
			// CrashedAt(node) must be the union of every crash window that
			// matches node (wildcard either side).
			want := false
			for _, g := range all {
				match := g.Kind == faults.FaultCrash && (g.Node == faults.Wildcard || g.Node == fl.Node)
				if match && tm >= g.From && (g.Until <= 0 || tm < g.Until) {
					want = true
				}
			}
			if got := p.CrashedAt(fl.Node, tm); got != want {
				t.Fatalf("CrashedAt(%s, %v) = %v, want %v (plan %q)", fl.Node, tm, got, want, spec)
			}
		}
		p.PartitionedAt("a", "b", tm)
		p.LossAt("a", "b", tm)
		p.SpikeAt("a", "b", tm)
	})
}

func TestParseFaultPlanRejectsOverlappingCrashWindows(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want bool // want rejection
	}{
		{"same node overlapping", "crash:a@10ms-30ms;crash:a@20ms-40ms", true},
		{"same node nested", "crash:a@10ms-100ms;crash:a@20ms-30ms", true},
		{"same node identical", "crash:a@10ms-20ms;crash:a@10ms-20ms", true},
		{"open window overlaps later", "crash:a@10ms-;crash:a@50ms-60ms", true},
		{"later open window overlaps", "crash:a@50ms-60ms;crash:a@55ms-", true},
		{"wildcard overlaps named", "crash:*@10ms-30ms;crash:a@20ms-40ms", true},
		{"named overlaps wildcard", "crash:a@10ms-30ms;crash:*@20ms-40ms", true},
		{"same node back-to-back", "crash:a@10ms-20ms;crash:a@20ms-30ms", false},
		{"same node disjoint", "crash:a@10ms-20ms;crash:a@30ms-40ms", false},
		{"different nodes overlapping", "crash:a@10ms-30ms;crash:b@20ms-40ms", false},
		{"crash plus link faults", "crash:a@10ms-20ms;loss:a>b:0.5@0-;partition:a<>b@0s-1s", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := faults.ParsePlan(tc.spec)
			if tc.want {
				if !errors.Is(err, faults.ErrOverlappingCrash) {
					t.Fatalf("ParsePlan(%q) err = %v, want ErrOverlappingCrash", tc.spec, err)
				}
				if p != nil {
					t.Fatalf("rejected plan should be nil, got %v", p.Faults())
				}
				return
			}
			if err != nil {
				t.Fatalf("ParsePlan(%q) unexpected error: %v", tc.spec, err)
			}
		})
	}
}

// TestParseFaultPlanErrorPaths walks every production of the spec
// grammar through its failure modes.
func TestParseFaultPlanErrorPaths(t *testing.T) {
	cases := []struct {
		name, spec, wantSub string
	}{
		{"missing kind separator", "crash", "missing kind"},
		{"unknown kind", "meteor:node@0-", "unknown kind"},
		{"missing window", "crash:node", "missing @window"},
		{"window missing dash", "crash:node@25ms", "want FROM-[UNTIL]"},
		{"window bad from", "crash:node@xyz-", "bad FROM"},
		{"window leading dash", "crash:node@-5ms-10ms", "UNTIL must be a duration after FROM"},
		{"window until before from", "crash:node@20ms-10ms", "UNTIL must be a duration after FROM"},
		{"window until equals from", "crash:node@20ms-20ms", "UNTIL must be a duration after FROM"},
		{"window bad until", "crash:node@0s-later", "UNTIL must be a duration after FROM"},
		{"crash missing node", "crash:@0-", "missing node"},
		{"partition missing arrow", "partition:ab@0-", "want A<>B or A>B"},
		{"loss missing prob", "loss:a>b@0-", "want SRC>DST:PROB"},
		{"loss missing arrow", "loss:ab:0.5@0-", "want SRC>DST:PROB"},
		{"loss prob not a number", "loss:a>b:heavy@0-", "probability must be in [0,1]"},
		{"loss prob NaN", "loss:a>b:NaN@0-", "probability must be in [0,1]"},
		{"loss prob negative", "loss:a>b:-0.1@0-", "probability must be in [0,1]"},
		{"loss prob above one", "loss:a>b:1.5@0-", "probability must be in [0,1]"},
		{"spike missing extra", "spike:a>b@0-", "want SRC>DST:EXTRA"},
		{"spike bad duration", "spike:a>b:fast@0-", "bad spike duration"},
		{"spike negative duration", "spike:a>b:-4ms@0-", "bad spike duration"},
		{"error in later clause", "crash:ok@0-;loss:a>b:2@0-", "probability must be in [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := faults.ParsePlan(tc.spec)
			if err == nil {
				t.Fatalf("ParsePlan(%q) accepted, plan %v", tc.spec, p.Faults())
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("ParsePlan(%q) err %q, want substring %q", tc.spec, err, tc.wantSub)
			}
		})
	}
}

func TestFaultPlanSpecCanonicalRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"crash:mix2@25ms-120ms",
		"loss:*>mix1:0.3@0s-",
		"spike:exit>origin:40ms@50ms-90ms",
		"partition:a>b@30ms-80ms;partition:b>a@30ms-80ms",
		"crash:mix2@25ms-120ms;loss:*>mix1:0.3@0s-;spike:exit>origin:40ms@50ms-90ms",
	} {
		p, err := faults.ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		if got := p.Spec(); got != spec {
			t.Errorf("Spec() = %q, want canonical %q", got, spec)
		}
	}
	// The builder's both-way Partition flattens to two one-way clauses.
	p := faults.NewPlan().Partition("a", "b", 0, 1*time.Millisecond)
	if got, want := p.Spec(), "partition:a>b@0s-1ms;partition:b>a@0s-1ms"; got != want {
		t.Errorf("both-way Partition Spec() = %q, want %q", got, want)
	}
	if _, err := faults.ParsePlan(p.Spec()); err != nil {
		t.Errorf("builder Spec does not re-parse: %v", err)
	}
}
