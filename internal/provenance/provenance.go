// Package provenance turns a ledger run into an explainable audit:
// for every derived tuple component and every entity link it answers
// "why does entity X know Y?" with the concrete observations behind the
// claim, and it exports the coalition linkage graph showing which
// handle partitions merge under full collusion.
//
// Audits are rendered deterministically. Three rules make the output
// byte-identical across -parallel settings and across runs even though
// admission order and crypto-derived byte strings are not:
//
//  1. Canonical ordering: observations are re-ordered by content
//     (observer, kind, label, level, subject, displayed value, time,
//     phase), not by admission sequence; canonical ids are positions in
//     that order.
//  2. Handle aliasing: raw linkage handles (often digests of
//     run-dependent ciphertexts) never appear in output; they are
//     renamed h1, h2, … in canonical first-use order.
//  3. Redaction: values the classifier did not recognize are opaque
//     blobs whose bytes vary run to run; they render as "(opaque)".
package provenance

import (
	"fmt"
	"sort"
	"strings"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

// OpaqueValue replaces unrecognized observation values in all rendered
// output; their concrete bytes are run-dependent ciphertext.
const OpaqueValue = "(opaque)"

// Evidence is one canonical observation as the audit renders it.
// Handles are aliases (h1, h2, …), never raw handle strings.
type Evidence struct {
	ID       int      `json:"id"`
	Observer string   `json:"observer"`
	Kind     string   `json:"kind"`
	Label    string   `json:"label,omitempty"`
	Level    string   `json:"level"`
	Subject  string   `json:"subject,omitempty"`
	Value    string   `json:"value"`
	Opaque   bool     `json:"opaque,omitempty"`
	Handles  []string `json:"handles,omitempty"`
	TimeNS   int64    `json:"time_ns"`
	Phase    string   `json:"phase,omitempty"`
}

// Component is one derived tuple component with its supporting
// evidence, referenced by canonical observation id.
type Component struct {
	Symbol    string `json:"symbol"`
	Kind      string `json:"kind"`
	Label     string `json:"label,omitempty"`
	Level     string `json:"level"`
	Extra     bool   `json:"extra,omitempty"`
	Evidence  []int  `json:"evidence"`
	AxisTotal int    `json:"axis_total"`
}

// Link is one linkage handle an entity holds, with the canonical ids
// of the observations carrying it.
type Link struct {
	Handle string `json:"handle"`
	Obs    []int  `json:"obs"`
}

// Entity is one audited entity: its derived (or, for the user,
// modeled) tuple plus component and link evidence.
type Entity struct {
	Name       string      `json:"name"`
	User       bool        `json:"user,omitempty"`
	Tuple      string      `json:"tuple"`
	Components []Component `json:"components,omitempty"`
	Links      []Link      `json:"links,omitempty"`
}

// ChainHop is one step of a subject's linkage chain: a canonical
// observation id and the handle alias shared with the next hop ("" on
// the final hop).
type ChainHop struct {
	Obs    int    `json:"obs"`
	Handle string `json:"handle,omitempty"`
}

// SubjectLink reports whether the full coalition links one subject's
// sensitive identity to their data, with the proving chain.
type SubjectLink struct {
	Subject string     `json:"subject"`
	Linked  bool       `json:"linked"`
	Chain   []ChainHop `json:"chain,omitempty"`
}

// Edge is one entity–handle incidence inside a partition: how many of
// the entity's observations carry the handle.
type Edge struct {
	Entity string `json:"entity"`
	Handle string `json:"handle"`
	Count  int    `json:"count"`
}

// Partition is one connected component of the coalition's bipartite
// observation/handle graph — one group of core.Linkage. Coupled
// partitions contain both a sensitive identity and sensitive (or
// partial) data of the same subject: each is one realized privacy
// violation under full collusion.
type Partition struct {
	ID       int      `json:"id"`
	Coupled  bool     `json:"coupled"`
	Entities []string `json:"entities"`
	Handles  []string `json:"handles"`
	Subjects []string `json:"subjects,omitempty"`
	Edges    []Edge   `json:"edges"`
}

// Audit is a complete provenance record for one run: the measured
// system, the decoupling verdict, canonical observations, per-entity
// evidence, per-subject linkage chains, and the coalition partition
// graph.
type Audit struct {
	// ID tags the audit with an experiment id when batch-produced by
	// cmd/experiments -audit; empty for standalone audits.
	ID          string
	System      string
	Verdict     core.Verdict
	Coalition   []string
	TotalObs    int
	HandleCount int
	Entities    []Entity
	Evidence    []Evidence
	Subjects    []SubjectLink
	Partitions  []Partition
}

// Derive builds the audit for a quiesced ledger against the expected
// system model. The coalition analyzed is every non-user entity — the
// worst case the paper's degree-of-decoupling measures.
func Derive(lg *ledger.Ledger, expected *core.System) (*Audit, error) {
	sysEv := lg.DeriveSystemEvidence(expected)
	verdict, err := core.Analyze(sysEv.System)
	if err != nil {
		return nil, fmt.Errorf("provenance: analyze measured system: %w", err)
	}

	obs, alias := canonicalize(lg.Observations())
	idBySeq := make(map[uint64]int, len(obs))
	for i, o := range obs {
		idBySeq[o.Seq()] = i + 1
	}

	a := &Audit{
		System:      sysEv.System.Name,
		Verdict:     verdict,
		TotalObs:    len(obs),
		HandleCount: len(alias),
	}
	for _, e := range expected.Entities {
		if !e.User {
			a.Coalition = append(a.Coalition, e.Name)
		}
	}

	for i := range obs {
		a.Evidence = append(a.Evidence, renderEvidence(obs[i], i+1, alias))
	}

	for _, ee := range sysEv.Entities {
		ent := Entity{Name: ee.Name, User: ee.User, Tuple: ee.Tuple.Symbol()}
		for _, ce := range ee.Components {
			c := Component{
				Symbol:    ce.Component.Symbol(),
				Kind:      ce.Component.Kind.String(),
				Label:     ce.Component.Label,
				Level:     ce.Component.Level.String(),
				Extra:     ce.Extra,
				Evidence:  idsOf(ce.Evidence, idBySeq),
				AxisTotal: ce.AxisTotal,
			}
			ent.Components = append(ent.Components, c)
		}
		for _, le := range ee.Links {
			ent.Links = append(ent.Links, Link{Handle: alias[le.Handle], Obs: idsOf(le.Evidence, idBySeq)})
		}
		sort.Slice(ent.Links, func(i, j int) bool {
			return aliasNum(ent.Links[i].Handle) < aliasNum(ent.Links[j].Handle)
		})
		a.Entities = append(a.Entities, ent)
	}

	for _, r := range adversary.LinkSubjectsEvidence(obs, a.Coalition) {
		sl := SubjectLink{Subject: r.Subject, Linked: r.Linked}
		for _, hop := range r.Path {
			sl.Chain = append(sl.Chain, ChainHop{Obs: hop.Obs + 1, Handle: alias[hop.Handle]})
		}
		a.Subjects = append(a.Subjects, sl)
	}

	a.Partitions = partitions(obs, a.Coalition, alias)
	return a, nil
}

func renderEvidence(o ledger.Observation, id int, alias map[string]string) Evidence {
	ev := Evidence{
		ID:       id,
		Observer: o.Observer,
		Kind:     o.Kind.String(),
		Label:    o.Label,
		Level:    o.Level.String(),
		Subject:  o.Subject,
		Value:    displayValue(o),
		Opaque:   !o.Recognized,
		TimeNS:   o.Time.Nanoseconds(),
		Phase:    o.Phase,
	}
	for _, h := range o.Handles {
		ev.Handles = append(ev.Handles, alias[h])
	}
	return ev
}

func idsOf(evidence []ledger.Observation, idBySeq map[uint64]int) []int {
	ids := make([]int, 0, len(evidence))
	for _, o := range evidence {
		ids = append(ids, idBySeq[o.Seq()])
	}
	sort.Ints(ids)
	return ids
}

func displayValue(o ledger.Observation) string {
	if o.Recognized {
		return o.Value
	}
	return OpaqueValue
}

// contentLess orders observations by content alone — every field that
// is stable across runs, none that depends on admission order or raw
// ciphertext bytes.
func contentLess(a, b ledger.Observation) bool {
	if a.Observer != b.Observer {
		return a.Observer < b.Observer
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	if a.Level != b.Level {
		return a.Level < b.Level
	}
	if a.Subject != b.Subject {
		return a.Subject < b.Subject
	}
	if av, bv := displayValue(a), displayValue(b); av != bv {
		return av < bv
	}
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Phase < b.Phase
}

// canonicalize re-orders observations content-first and renames every
// handle to an alias h1, h2, … assigned in first-use order.
//
// Observations whose content ties (e.g. twenty opaque proxy records
// differing only in which client leg they carry) are disambiguated by
// structural handle keys computed with color refinement (1-WL) over
// the bipartite observation/handle graph: a handle's key is the hash
// of the sorted keys of the observations carrying it, iterated until
// the partition stops refining. The keys derive purely from content
// and graph shape, so they are identical across admission orders and
// across runs with different raw handle bytes. Observations still tied
// after refinement are structurally interchangeable — any relative
// order renders the same bytes.
func canonicalize(obs []ledger.Observation) ([]ledger.Observation, map[string]string) {
	hObs := map[string][]int{}
	for i, o := range obs {
		for _, h := range o.Handles {
			hObs[h] = append(hObs[h], i)
		}
	}

	content := make([]string, len(obs))
	for i, o := range obs {
		content[i] = contentKey(o)
	}

	hKey := refineHandleKeys(obs, content, hObs)

	obsKey := make([]string, len(obs))
	for i, o := range obs {
		var b strings.Builder
		for _, h := range o.Handles {
			b.WriteString(hKey[h])
			b.WriteByte(',')
		}
		obsKey[i] = b.String()
	}

	idx := make([]int, len(obs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if contentLess(obs[i], obs[j]) {
			return true
		}
		if contentLess(obs[j], obs[i]) {
			return false
		}
		return obsKey[i] < obsKey[j]
	})

	ordered := make([]ledger.Observation, len(obs))
	for p, i := range idx {
		ordered[p] = obs[i]
	}
	aliasIdx := map[string]int{}
	for _, o := range ordered {
		for _, h := range o.Handles {
			if _, ok := aliasIdx[h]; !ok {
				aliasIdx[h] = len(aliasIdx) + 1
			}
		}
	}
	alias := make(map[string]string, len(aliasIdx))
	for h, n := range aliasIdx {
		alias[h] = fmt.Sprintf("h%d", n)
	}
	return ordered, alias
}

// refineHandleKeys computes a structural key per handle by color
// refinement: each round folds the observations' (content key + handle
// keys) back into the handles carrying them. Refinement only ever
// splits key groups (each next key includes the previous), so the
// partition is stable once the distinct-key count stops growing.
func refineHandleKeys(obs []ledger.Observation, content []string, hObs map[string][]int) map[string]string {
	hKey := make(map[string]string, len(hObs))
	distinct := 0
	full := make([]string, len(obs))
	for round := 0; round < 2*len(obs)+2; round++ {
		for i, o := range obs {
			var b strings.Builder
			b.WriteString(content[i])
			for _, h := range o.Handles {
				b.WriteByte('|')
				b.WriteString(hKey[h])
			}
			full[i] = ledger.Hash([]byte(b.String()))
		}
		next := make(map[string]string, len(hObs))
		seen := map[string]bool{}
		for h, idxs := range hObs {
			keys := make([]string, len(idxs))
			for j, i := range idxs {
				keys[j] = full[i]
			}
			sort.Strings(keys)
			next[h] = ledger.Hash([]byte(hKey[h] + "!" + strings.Join(keys, ",")))
			seen[next[h]] = true
		}
		hKey = next
		if len(seen) == distinct {
			break
		}
		distinct = len(seen)
	}
	return hKey
}

// contentKey serializes the run-stable fields of an observation into a
// single comparable string (the same fields contentLess orders by).
func contentKey(o ledger.Observation) string {
	return strings.Join([]string{
		o.Observer, o.Kind.String(), o.Label, o.Level.String(),
		o.Subject, displayValue(o), o.Time.String(), o.Phase,
	}, "\x00")
}

// aliasNum parses the numeric part of an "h<N>" alias for numeric
// ordering of handle lists.
func aliasNum(alias string) int {
	n := 0
	for _, c := range strings.TrimPrefix(alias, "h") {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// partitions groups the coalition's observations by shared handles —
// the same linkage adversary.LinkSubjects joins — and reports each
// connected component, ordered by lowest canonical id.
func partitions(obs []ledger.Observation, coalition []string, alias map[string]string) []Partition {
	members := map[string]bool{}
	for _, m := range coalition {
		members[m] = true
	}
	link := core.NewLinkage(len(obs))
	inCoalition := make([]bool, len(obs))
	for i, o := range obs {
		if members[o.Observer] {
			inCoalition[i] = true
			link.Link(i, o.Handles)
		}
	}

	var out []Partition
	for gi, group := range link.Groups(inCoalition) {
		p := Partition{ID: gi}
		entities := map[string]bool{}
		idSubjects := map[string]bool{}
		dataSubjects := map[string]bool{}
		handleSet := map[string]bool{}
		edgeCount := map[Edge]int{}
		for _, i := range group {
			o := obs[i]
			entities[o.Observer] = true
			if adversary.SubjectSide(o) {
				if o.Kind == core.Identity {
					idSubjects[o.Subject] = true
				} else {
					dataSubjects[o.Subject] = true
				}
			}
			for _, h := range o.Handles {
				ha := alias[h]
				handleSet[ha] = true
				edgeCount[Edge{Entity: o.Observer, Handle: ha}]++
			}
		}
		subjects := map[string]bool{}
		for s := range idSubjects {
			subjects[s] = true
			if dataSubjects[s] {
				p.Coupled = true
			}
		}
		for s := range dataSubjects {
			subjects[s] = true
		}
		for s := range subjects {
			p.Subjects = append(p.Subjects, s)
		}
		sort.Strings(p.Subjects)
		for e := range entities {
			p.Entities = append(p.Entities, e)
		}
		sort.Strings(p.Entities)
		for h := range handleSet {
			p.Handles = append(p.Handles, h)
		}
		sort.Slice(p.Handles, func(i, j int) bool { return aliasNum(p.Handles[i]) < aliasNum(p.Handles[j]) })
		for e, n := range edgeCount {
			e.Count = n
			p.Edges = append(p.Edges, e)
		}
		sort.Slice(p.Edges, func(i, j int) bool {
			if p.Edges[i].Entity != p.Edges[j].Entity {
				return p.Edges[i].Entity < p.Edges[j].Entity
			}
			return aliasNum(p.Edges[i].Handle) < aliasNum(p.Edges[j].Handle)
		})
		out = append(out, p)
	}
	return out
}
