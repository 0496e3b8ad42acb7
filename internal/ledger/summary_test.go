package ledger

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"decoupling/internal/core"
)

// The rescan* functions are the reference the shard summaries are
// checked against: the algorithms DeriveTuple, Handles, Stats and
// DeriveSystem used before the ledger kept summaries, scanning an
// observer's whole log on every read.

func rescanTuple(obs []Observation, template core.Tuple) core.Tuple {
	maxLevel := map[axis]core.Level{}
	for _, o := range obs {
		a := axis{o.Kind, o.Label}
		if o.Level > maxLevel[a] {
			maxLevel[a] = o.Level
		}
	}
	covered := map[axis]bool{}
	out := make(core.Tuple, 0, len(template))
	for _, c := range template {
		a := axis{c.Kind, c.Label}
		covered[a] = true
		out = append(out, core.Component{Kind: c.Kind, Label: c.Label, Level: maxLevel[a]})
	}
	extras := make([]axis, 0)
	for a, lvl := range maxLevel {
		if !covered[a] && lvl > core.NonSensitive {
			extras = append(extras, a)
		}
	}
	sortExtras(extras, maxLevel)
	for _, a := range extras {
		out = append(out, core.Component{Kind: a.kind, Label: a.label, Level: maxLevel[a]})
	}
	return out
}

func rescanHandles(obs []Observation) []string {
	set := map[string]bool{}
	for _, o := range obs {
		for _, h := range o.Handles {
			set[h] = true
		}
	}
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// rescanStats summarizes the named observers that hold observations,
// in name order.
func rescanStats(lg *Ledger, observers []string) Stats {
	names := append([]string(nil), observers...)
	sort.Strings(names)
	var st Stats
	for _, name := range names {
		obs := lg.ByObserver(name)
		if len(obs) == 0 {
			continue
		}
		st.Observers = append(st.Observers, ObserverStats{
			Observer: name, Observations: len(obs), Handles: len(rescanHandles(obs)),
		})
		st.Total += len(obs)
	}
	return st
}

func rescanSystem(lg *Ledger, expected *core.System) *core.System {
	out := &core.System{
		Name:          expected.Name + " (measured)",
		Section:       expected.Section,
		SharedSecrets: expected.SharedSecrets,
		Notes:         "derived from runtime observations",
	}
	for _, e := range expected.Entities {
		ne := core.Entity{Name: e.Name, User: e.User}
		if e.User {
			ne.Knows = e.Knows
		} else {
			obs := lg.ByObserver(e.Name)
			ne.Knows = rescanTuple(obs, e.Knows)
			ne.Links = rescanHandles(obs)
		}
		out.Entities = append(out.Entities, ne)
	}
	return out
}

// summaryStreamSystem is the template a summary stream is derived
// against. A, B and C observe; Z never does. B's template splits
// identity into H and N axes, and C's is empty, so every sensitive axis
// C sees surfaces as an extra.
func summaryStreamSystem() *core.System {
	return &core.System{
		Name: "summary stream",
		Entities: []core.Entity{
			{Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()}},
			{Name: "A", Knows: core.Tuple{core.NonSensID(), core.NonSensData()}},
			{Name: "B", Knows: core.Tuple{core.SensID("H"), core.NonSensID("N"), core.NonSensData()}},
			{Name: "C"},
			{Name: "Z", Knows: core.Tuple{core.NonSensID(), core.NonSensData()}},
		},
	}
}

// runSummaryStream drives one ledger through ops steps chosen by intn
// (which returns a value in [0, n)): single Saws, SawBatches of up to
// three entries, and classifier registrations that land mid-stream.
// Values and handles come from small pools, so both repeat across
// observations, and an entry may carry the same handle twice. After
// every step the summaries must equal the rescan reference, and every
// admission must leave the caller's handle slices untouched.
func runSummaryStream(t *testing.T, ops int, intn func(n int) int) {
	t.Helper()
	kinds := []core.Kind{core.Identity, core.Data}
	labels := []string{"", "H", "N"}
	levels := []core.Level{core.NonSensitive, core.Partial, core.Sensitive}
	observers := []string{"A", "B", "C"}
	sys := summaryStreamSystem()
	cls := NewClassifier()
	lg := New(cls, nil)
	// handles builds a fresh caller slice of fresh strings, so interning
	// has distinct copies of equal handles to fold together.
	handles := func() []string {
		hs := make([]string, intn(4))
		for i := range hs {
			hs[i] = fmt.Sprintf("h%d", intn(6))
		}
		return hs
	}
	value := func() string { return fmt.Sprintf("v%d", intn(8)) }

	checkSummaries(t, lg, sys, observers)
	for step := 0; step < ops && !t.Failed(); step++ {
		observer := observers[intn(len(observers))]
		var callerSlices [][]string
		var before [][]*byte
		switch intn(4) {
		case 0: // register (or re-register) a value's ground truth
			v, lab, lvl := value(), labels[intn(len(labels))], levels[intn(len(levels))]
			if kinds[intn(2)] == core.Identity {
				cls.RegisterIdentity(v, "s", lab, lvl)
			} else {
				cls.RegisterData(v, "s", lab, lvl)
			}
		case 1:
			hs := handles()
			callerSlices, before = append(callerSlices, hs), append(before, stringPtrs(hs))
			lg.Saw(observer, kinds[intn(2)], value(), hs...)
		default:
			entries := make([]Entry, 1+intn(3))
			for i := range entries {
				hs := handles()
				entries[i] = Entry{Kind: kinds[intn(2)], Value: value(), Handles: hs}
				callerSlices, before = append(callerSlices, hs), append(before, stringPtrs(hs))
			}
			lg.SawBatch(observer, entries)
		}
		checkInterning(t, lg, observer, callerSlices, before)
		checkSummaries(t, lg, sys, observers)
	}
}

// stringPtrs records where each handle's bytes live, so a later
// comparison can tell whether a slice element was replaced by an equal
// string stored elsewhere.
func stringPtrs(hs []string) []*byte {
	out := make([]*byte, len(hs))
	for i, h := range hs {
		out[i] = unsafe.StringData(h)
	}
	return out
}

// checkInterning holds the interning contract for the admission just
// made: the ledger's stored copies equal the caller's handles in value
// and have no spare capacity to share, the caller's slices still hold
// their own strings (before records them), and every stored handle of
// the observer is its one canonical copy.
func checkInterning(t *testing.T, lg *Ledger, observer string, callerSlices [][]string, before [][]*byte) {
	t.Helper()
	if len(callerSlices) == 0 {
		return
	}
	obs := lg.ByObserver(observer)
	stored := obs[len(obs)-len(callerSlices):]
	for i, caller := range callerSlices {
		if len(stored[i].Handles) != len(caller) || cap(stored[i].Handles) != len(caller) {
			t.Fatalf("%s: stored %d handles (capacity %d), caller passed %d",
				observer, len(stored[i].Handles), cap(stored[i].Handles), len(caller))
		}
		for j, h := range caller {
			if stored[i].Handles[j] != h {
				t.Fatalf("%s: stored handles %q, caller passed %q", observer, stored[i].Handles, caller)
			}
		}
		if !slices.Equal(stringPtrs(caller), before[i]) {
			t.Fatalf("%s: admission rewrote the caller's handle slice %q", observer, caller)
		}
	}
	canonical := map[string]*byte{}
	for _, o := range obs {
		for _, h := range o.Handles {
			if p, ok := canonical[h]; !ok {
				canonical[h] = unsafe.StringData(h)
			} else if p != unsafe.StringData(h) {
				t.Fatalf("%s: handle %q stored as two copies", observer, h)
			}
		}
	}
}

// checkSummaries compares every summary-backed read against the rescan
// reference, for each entity of sys (Z never observes).
func checkSummaries(t *testing.T, lg *Ledger, sys *core.System, observers []string) {
	t.Helper()
	for _, e := range sys.Entities {
		if e.User {
			continue
		}
		obs := lg.ByObserver(e.Name)
		if got, want := lg.DeriveTuple(e.Name, e.Knows), rescanTuple(obs, e.Knows); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DeriveTuple = %v, rescan = %v", e.Name, got, want)
		}
		got, want := lg.Handles(e.Name), rescanHandles(obs)
		if got == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Handles = %#v, rescan = %#v", e.Name, got, want)
		}
	}
	if got, want := lg.Stats(), rescanStats(lg, append(observers, "Z")); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats = %+v, rescan = %+v", got, want)
	}
	if got, want := lg.DeriveSystem(sys), rescanSystem(lg, sys); !reflect.DeepEqual(got, want) {
		t.Fatalf("DeriveSystem = %+v, rescan = %+v", got, want)
	}
}

// TestSummariesMatchRescan is the differential check of the shard
// summaries: seeded random streams of Saw, SawBatch and mid-stream
// registrations over three observers, checked after every step.
func TestSummariesMatchRescan(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			runSummaryStream(t, 150, rng.Intn)
		})
	}
}

// FuzzLedgerSummaries is TestSummariesMatchRescan with the stream's
// choices taken from the fuzzer's bytes; once they run out every
// choice is 0.
func FuzzLedgerSummaries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 3, 1, 1, 1, 1, 2, 2, 2, 5, 5, 5})
	f.Add([]byte{0, 0, 3, 1, 2, 2, 0, 1, 3, 0, 5, 0, 5, 0, 5, 1, 1, 1, 7, 0, 2, 0, 2, 1, 1, 3, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		runSummaryStream(t, len(data), func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		})
	})
}
