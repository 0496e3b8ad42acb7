package ledger

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"decoupling/internal/core"
)

// TestConcurrentObserveMatchesSequential is the lock-striping
// correctness check: N goroutines per observer interleaving Saw,
// RegisterIdentity/RegisterData, and mid-flight DeriveTuple/Handles
// reads must leave the ledger with exactly the tuples, handles and
// stats a sequential run derives. Each goroutine's successive
// mid-flight reads must be monotone: the summaries only ever grow.
// Run it under -race.
func TestConcurrentObserveMatchesSequential(t *testing.T) {
	t.Parallel()
	const (
		observers = 8
		writers   = 4  // goroutines per observer
		events    = 50 // observations per goroutine
	)
	template := core.Tuple{core.SensID(), core.SensData()}

	// Sequential ground truth: same event set, one goroutine.
	seq := New(NewClassifier(), nil)
	registerAll(seq.Classifier(), observers)
	for o := 0; o < observers; o++ {
		for w := 0; w < writers; w++ {
			for e := 0; e < events; e++ {
				emit(seq, o, w, e)
			}
		}
	}

	conc := New(NewClassifier(), nil)
	registerAll(conc.Classifier(), observers)
	var wg sync.WaitGroup
	for o := 0; o < observers; o++ {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(o, w int) {
				defer wg.Done()
				var prevTuple core.Tuple
				prevHandles := 0
				for e := 0; e < events; e++ {
					emit(conc, o, w, e)
					if e%16 == 0 {
						// Mid-flight reads must not wedge, corrupt, or
						// go backwards.
						tuple := conc.DeriveTuple(obsName(o), template)
						if a := levelDropped(prevTuple, tuple); a != "" {
							t.Errorf("%s: level on %s fell between reads: %v then %v", obsName(o), a, prevTuple, tuple)
						}
						handles := len(conc.Handles(obsName(o)))
						if handles < prevHandles {
							t.Errorf("%s: handle count fell between reads: %d then %d", obsName(o), prevHandles, handles)
						}
						prevTuple, prevHandles = tuple, handles
						_ = conc.Len()
					}
				}
			}(o, w)
		}
	}
	// Concurrent re-registration exercises the classifier's write lock
	// against the hot classify read path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			conc.Classifier().RegisterIdentity(
				fmt.Sprintf("id-%d", i%observers), obsName(i%observers), "", core.Sensitive)
		}
	}()
	wg.Wait()

	if got, want := conc.Len(), seq.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := conc.Stats(), seq.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	for o := 0; o < observers; o++ {
		name := obsName(o)
		gotTuple := conc.DeriveTuple(name, template)
		wantTuple := seq.DeriveTuple(name, template)
		if !reflect.DeepEqual(gotTuple, wantTuple) {
			t.Errorf("%s: tuple = %v, want %v", name, gotTuple, wantTuple)
		}
		if got, want := conc.Handles(name), seq.Handles(name); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: handles = %v, want %v", name, got, want)
		}
		// Per-observer logs must hold the same multiset of values; the
		// interleaving across writer goroutines is free to differ.
		if got, want := countValues(conc.ByObserver(name)), countValues(seq.ByObserver(name)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: observation multiset diverged", name)
		}
	}

	// The merged view must be a permutation in strictly increasing
	// admission order.
	all := conc.Observations()
	if len(all) != seq.Len() {
		t.Fatalf("Observations = %d, want %d", len(all), seq.Len())
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].seq >= all[i].seq {
			t.Fatalf("admission order violated at %d: %d >= %d", i, all[i-1].seq, all[i].seq)
		}
	}
}

// levelDropped names the first axis of prev whose level is lower in
// cur (absent counting as NonSensitive), or returns "" if none fell.
func levelDropped(prev, cur core.Tuple) string {
	levels := map[axis]core.Level{}
	for _, c := range cur {
		levels[axis{c.Kind, c.Label}] = c.Level
	}
	for _, p := range prev {
		if levels[axis{p.Kind, p.Label}] < p.Level {
			return fmt.Sprintf("kind %d label %q", p.Kind, p.Label)
		}
	}
	return ""
}

func registerAll(c *Classifier, observers int) {
	for o := 0; o < observers; o++ {
		c.RegisterIdentity(fmt.Sprintf("id-%d", o), obsName(o), "", core.Sensitive)
		c.RegisterData(fmt.Sprintf("data-%d", o), obsName(o), "", core.Sensitive)
	}
}

func obsName(o int) string { return fmt.Sprintf("entity-%d", o) }

// emit records one deterministic observation for (observer, writer,
// event) — the same call whether issued sequentially or concurrently.
func emit(l *Ledger, o, w, e int) {
	name := obsName(o)
	switch e % 3 {
	case 0:
		l.SawIdentity(name, fmt.Sprintf("id-%d", o), ConnHandle(name, fmt.Sprintf("w%d", w)))
	case 1:
		l.SawData(name, fmt.Sprintf("data-%d", o), ConnHandle(name, "shared"))
	default:
		l.SawData(name, fmt.Sprintf("ciphertext-%d-%d", w, e))
	}
}

func countValues(obs []Observation) map[string]int {
	m := map[string]int{}
	for _, o := range obs {
		m[fmt.Sprintf("%d|%s|%d", o.Kind, o.Value, o.Level)]++
	}
	return m
}
