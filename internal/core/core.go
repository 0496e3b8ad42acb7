// Package core implements the Decoupling Principle framework of
// Schmitt, Iyengar, Wood & Raghavan (HotNets '22) §2.4 as an executable
// model.
//
// The paper's notation:
//
//	▲  sensitive user identity known by some entity
//	△  non-sensitive user identity
//	●  sensitive user data
//	⊙  non-sensitive user data
//
// An entity's knowledge is a tuple of such components (possibly with
// labeled sub-identities, e.g. PGPP's human identity ▲_H vs network
// identity ▲_N). A system is *decoupled* — and thus benefits from the
// privacy the principle confers — iff only the user holds (▲, ●): every
// other entity may hold at most one of ▲ or ●, with all remaining tuple
// entries △ or ⊙.
//
// Beyond the paper's static notation, the model adds linkage handles so
// that coalition (collusion) analysis distinguishes entities that merely
// both hold information from entities that can actually *join* their
// observations (§4.1, §5.2): colluding parties re-couple identity with
// data only if a chain of shared handles connects them.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// Kind distinguishes the two axes of the paper's analysis: who you are
// versus what you do.
type Kind int

const (
	// Identity marks a component describing who the user is (▲ / △).
	Identity Kind = iota
	// Data marks a component describing what the user does (● / ⊙).
	Data
)

// String returns "identity" or "data".
func (k Kind) String() string {
	switch k {
	case Identity:
		return "identity"
	case Data:
		return "data"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Level is the sensitivity of a known component.
type Level int

const (
	// NonSensitive is △ (identity) or ⊙ (data).
	NonSensitive Level = iota
	// Partial is the paper's "⊙/●" — some sensitive detail leaks (e.g.
	// Private Relay's second hop learning the origin FQDN) without the
	// full sensitive item. Partial counts as sensitive for the verdict.
	Partial
	// Sensitive is ▲ (identity) or ● (data).
	Sensitive
)

// String returns a short name for the level.
func (l Level) String() string {
	switch l {
	case NonSensitive:
		return "non-sensitive"
	case Partial:
		return "partial"
	case Sensitive:
		return "sensitive"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Component is one entry of a knowledge tuple: a kind, an optional label
// distinguishing sub-identities or data facets (e.g. "H" and "N" in the
// PGPP analysis), and the sensitivity level at which the entity knows it.
type Component struct {
	Kind  Kind
	Label string
	Level Level
}

// Symbol renders the component in the paper's notation: ▲, △, ●, ⊙ or
// ⊙/● for partial data, with a _label subscript when labeled.
func (c Component) Symbol() string {
	var s string
	switch c.Kind {
	case Identity:
		switch c.Level {
		case Sensitive:
			s = "▲"
		case Partial:
			s = "△/▲"
		default:
			s = "△"
		}
	case Data:
		switch c.Level {
		case Sensitive:
			s = "●"
		case Partial:
			s = "⊙/●"
		default:
			s = "⊙"
		}
	}
	if c.Label != "" {
		s += "_" + c.Label
	}
	return s
}

// Tuple is an entity's knowledge: an ordered list of components. Order
// follows the paper's tables (identities first, then data).
type Tuple []Component

// Symbol renders the tuple as the paper writes it, e.g. "(▲_H, △_N, ⊙)".
func (t Tuple) Symbol() string {
	parts := make([]string, len(t))
	for i, c := range t {
		parts[i] = c.Symbol()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// knowsSensitive reports whether the tuple holds any component of the
// given kind at Sensitive (or, for data, Partial) level. Partial data
// counts because a partially sensitive datum joined with a sensitive
// identity is already a privacy violation (§3.2.4's FQDN example).
func (t Tuple) knowsSensitive(k Kind) bool {
	for _, c := range t {
		if c.Kind != k {
			continue
		}
		if c.Level == Sensitive || (k == Data && c.Level == Partial) {
			return true
		}
	}
	return false
}

// Coupled reports whether this tuple alone re-couples who the user is
// with what they do: it holds both a sensitive identity and sensitive
// (or partially sensitive) data.
func (t Tuple) Coupled() bool {
	return t.knowsSensitive(Identity) && t.knowsSensitive(Data)
}

// Merge unions two tuples, keeping the maximum level per (kind, label).
// It models information pooling under collusion.
func (t Tuple) Merge(other Tuple) Tuple {
	type key struct {
		k     Kind
		label string
	}
	best := map[key]Component{}
	order := []key{}
	add := func(c Component) {
		k := key{c.Kind, c.Label}
		if prev, ok := best[k]; ok {
			if c.Level > prev.Level {
				best[k] = c
			}
			return
		}
		best[k] = c
		order = append(order, k)
	}
	for _, c := range t {
		add(c)
	}
	for _, c := range other {
		add(c)
	}
	// Stable paper-style ordering: identities before data, then label.
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].k != order[j].k {
			return order[i].k < order[j].k
		}
		return order[i].label < order[j].label
	})
	out := make(Tuple, 0, len(order))
	for _, k := range order {
		out = append(out, best[k])
	}
	return out
}

// Equal reports whether two tuples contain the same components at the
// same levels, ignoring order.
func (t Tuple) Equal(other Tuple) bool {
	norm := func(x Tuple) string {
		parts := make([]string, len(x))
		for i, c := range x {
			parts[i] = fmt.Sprintf("%d|%s|%d", c.Kind, c.Label, c.Level)
		}
		sort.Strings(parts)
		return strings.Join(parts, ";")
	}
	return norm(t) == norm(other)
}

// Convenience constructors matching the paper's symbols.

// SensID returns ▲ (optionally labeled, e.g. SensID("H") for ▲_H).
func SensID(label ...string) Component { return comp(Identity, Sensitive, label) }

// NonSensID returns △.
func NonSensID(label ...string) Component { return comp(Identity, NonSensitive, label) }

// SensData returns ●.
func SensData(label ...string) Component { return comp(Data, Sensitive, label) }

// NonSensData returns ⊙.
func NonSensData(label ...string) Component { return comp(Data, NonSensitive, label) }

// PartialData returns ⊙/●.
func PartialData(label ...string) Component { return comp(Data, Partial, label) }

func comp(k Kind, l Level, label []string) Component {
	c := Component{Kind: k, Level: l}
	if len(label) > 0 {
		c.Label = label[0]
	}
	return c
}

// Entity is a party in the decoupling analysis: the user themself, or a
// service/infrastructure actor. Links lists opaque correlation handles
// the entity holds (session ids, observed ciphertext digests, account
// identifiers); two colluding entities can join their knowledge only
// where their handle sets intersect, or where either saw the subject's
// ground identity directly.
type Entity struct {
	Name  string
	User  bool
	Knows Tuple
	Links []string
}

// SharedSecret models information that is non-sensitive at each holder
// individually but becomes sensitive when all holders pool it — the
// secret-sharing structure of PPM/Prio (§3.2.5), where any proper subset
// of aggregators sees uniformly random shares but the complete set can
// recombine client inputs.
type SharedSecret struct {
	Name    string
	Holders []string
	// Yields is the component the complete holder set reconstructs.
	Yields Component
}

// HeldBy reports whether names includes every holder, so that pooling
// their shares reconstructs the secret. A secret with no holders is
// never reconstructed.
func (s SharedSecret) HeldBy(names map[string]bool) bool {
	if len(s.Holders) == 0 {
		return false
	}
	for _, h := range s.Holders {
		if !names[h] {
			return false
		}
	}
	return true
}

// System is a complete decoupling analysis target: a named set of
// entities, at least one of which is the user.
type System struct {
	Name     string
	Section  string // paper section, e.g. "3.2.2"
	Entities []Entity
	// SharedSecrets lists threshold structures whose reconstruction
	// requires every named holder to collude.
	SharedSecrets []SharedSecret
	Notes         string
}

// Entity returns the named entity, or nil.
func (s *System) Entity(name string) *Entity {
	for i := range s.Entities {
		if s.Entities[i].Name == name {
			return &s.Entities[i]
		}
	}
	return nil
}

// User returns the first user entity, or nil if the model is malformed.
func (s *System) User() *Entity {
	for i := range s.Entities {
		if s.Entities[i].User {
			return &s.Entities[i]
		}
	}
	return nil
}

// Validate checks structural well-formedness: a user exists, names are
// unique and non-empty.
func (s *System) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("core: system has no name")
	}
	if s.User() == nil {
		return fmt.Errorf("core: system %q has no user entity", s.Name)
	}
	seen := map[string]bool{}
	for _, e := range s.Entities {
		if e.Name == "" {
			return fmt.Errorf("core: system %q has an unnamed entity", s.Name)
		}
		if seen[e.Name] {
			return fmt.Errorf("core: system %q has duplicate entity %q", s.Name, e.Name)
		}
		seen[e.Name] = true
	}
	return nil
}
