package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Verdict is the result of a decoupling analysis of a single system.
type Verdict struct {
	System string
	// Decoupled is the paper's headline predicate: true iff only the
	// user holds (▲, ●).
	Decoupled bool
	// CoupledEntities lists non-user entities that individually hold
	// both a sensitive identity and sensitive data — each is a single
	// point of surveillance (the VPN failure mode, §3.3).
	CoupledEntities []string
	// MinCoalition is the smallest set of non-user entities whose
	// merged, linkable knowledge re-couples identity with data; nil if
	// no coalition of any size can (information-theoretic decoupling).
	MinCoalition []string
	// Degree is the paper's §4.2 "degree of decoupling": the size of
	// MinCoalition. Degree 1 means a single entity violates privacy
	// (not decoupled); higher degrees mean that many organizations must
	// actively collude. 0 means no coalition suffices.
	Degree int
}

// String summarizes the verdict in one line.
func (v Verdict) String() string {
	status := "DECOUPLED"
	if !v.Decoupled {
		status = "NOT DECOUPLED"
	}
	coalition := "none"
	if len(v.MinCoalition) > 0 {
		coalition = strings.Join(v.MinCoalition, "+")
	}
	return fmt.Sprintf("%s: %s (degree %d, min coalition %s)", v.System, status, v.Degree, coalition)
}

// Analyze applies the Decoupling Principle to a system model. It
// implements the §2.4 rule plus the §4.1 collusion analysis: for every
// subset of non-user entities it checks whether the coalition's merged
// knowledge is coupled AND internally linkable, and reports the smallest
// such coalition.
func Analyze(s *System) (Verdict, error) {
	if err := s.Validate(); err != nil {
		return Verdict{}, err
	}
	v := Verdict{System: s.Name, Decoupled: true}

	var others []Entity
	for _, e := range s.Entities {
		if e.User {
			continue
		}
		others = append(others, e)
		if e.Knows.Coupled() {
			v.Decoupled = false
			v.CoupledEntities = append(v.CoupledEntities, e.Name)
		}
	}
	sort.Strings(v.CoupledEntities)

	// Exhaustive coalition search. Systems in this module have ≤ 8
	// non-user entities, so 2^n enumeration is trivially cheap. We scan
	// subsets in order of increasing popcount to find a minimum.
	n := len(others)
	if n > 20 {
		return Verdict{}, fmt.Errorf("core: coalition search over %d entities is not supported", n)
	}
	best := 0
	var bestSet []string
	for size := 1; size <= n && best == 0; size++ {
		for mask := 1; mask < 1<<n; mask++ {
			if bits.OnesCount(uint(mask)) != size {
				continue
			}
			var members []Entity
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					members = append(members, others[i])
				}
			}
			if coalitionCoupled(s, members) {
				best = size
				bestSet = names(members)
				break
			}
		}
	}
	v.Degree = best
	v.MinCoalition = bestSet
	return v, nil
}

func names(es []Entity) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

// coalitionCoupled reports whether a set of colluding entities can
// re-couple a sensitive identity with sensitive data. Pooling knowledge
// is necessary but not sufficient: the members holding the identity and
// the members holding the data must be connected through shared linkage
// handles (directly or transitively through other coalition members),
// otherwise the coalition has two piles of facts and no join key — the
// precise sense in which a mix cascade resists partial collusion.
//
// Entities with no declared links are treated as linkable to every
// coalition member (conservative: absence of handle modeling must not
// produce false privacy claims).
//
// Shared-secret structures (System.SharedSecrets) are reconstructed when
// the coalition contains every holder: the yielded component joins the
// merged tuple and the holders become mutually linked, since recombining
// shares is itself a join.
func coalitionCoupled(s *System, members []Entity) bool {
	merged := Tuple{}
	present := map[string]bool{}
	for _, e := range members {
		merged = merged.Merge(e.Knows)
		present[e.Name] = true
	}
	var reconstructed []SharedSecret
	for _, sec := range s.SharedSecrets {
		if sec.HeldBy(present) {
			merged = merged.Merge(Tuple{sec.Yields})
			reconstructed = append(reconstructed, sec)
		}
	}
	if !merged.Coupled() {
		return false
	}
	link := NewLinkage(len(members))
	for i, e := range members {
		if len(e.Links) == 0 {
			// Conservatively linkable to all members.
			for j := range members {
				link.Join(i, j)
			}
			continue
		}
		link.Link(i, e.Links)
	}

	// Effective per-member knowledge: own tuple plus any secrets whose
	// complete holder set is in the coalition and includes this member.
	// Recombination also links the holders to one another.
	effective := make([]Tuple, len(members))
	for i, e := range members {
		effective[i] = e.Knows
	}
	for _, sec := range reconstructed {
		var idxs []int
		for i, e := range members {
			for _, h := range sec.Holders {
				if e.Name == h {
					idxs = append(idxs, i)
					break
				}
			}
		}
		for _, i := range idxs {
			effective[i] = effective[i].Merge(Tuple{sec.Yields})
			link.Join(idxs[0], i)
		}
	}

	// Is some identity holder connected to some data holder?
	for i := range members {
		if !effective[i].knowsSensitive(Identity) {
			continue
		}
		for j := range members {
			if !effective[j].knowsSensitive(Data) {
				continue
			}
			if link.Linked(i, j) {
				return true
			}
		}
	}
	return false
}

// CompareTuples diffs an expected analysis (the paper's table) against a
// measured one (derived from a running implementation), returning a list
// of human-readable mismatches; empty means exact agreement.
func CompareTuples(expected, measured *System) []string {
	var diffs []string
	for _, e := range expected.Entities {
		m := measured.Entity(e.Name)
		if m == nil {
			diffs = append(diffs, fmt.Sprintf("entity %q missing from measured system", e.Name))
			continue
		}
		if !e.Knows.Equal(m.Knows) {
			diffs = append(diffs, fmt.Sprintf("entity %q: expected %s, measured %s",
				e.Name, e.Knows.Symbol(), m.Knows.Symbol()))
		}
	}
	for _, m := range measured.Entities {
		if expected.Entity(m.Name) == nil {
			diffs = append(diffs, fmt.Sprintf("entity %q present in measured system but absent from paper table", m.Name))
		}
	}
	return diffs
}
