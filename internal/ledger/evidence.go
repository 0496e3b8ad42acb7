package ledger

import "decoupling/internal/core"

// ComponentEvidence ties one derived tuple component to the
// observations that establish it: the component's level is the maximum
// seen on its (kind, label) axis, and Evidence lists exactly the
// observations at that level, in admission order. AxisTotal counts
// every observation on the axis at any level, so renderers can report
// "20 of 23 observations establish the level" without silent caps.
type ComponentEvidence struct {
	Component core.Component
	// Extra marks a component absent from the template — an unexpected
	// leak surfaced by derivation rather than predicted by the model.
	Extra     bool
	Evidence  []Observation
	AxisTotal int
}

// LinkEvidence ties one linkage handle an entity holds to the
// observations that carry it, in admission order.
type LinkEvidence struct {
	Handle   string
	Evidence []Observation
}

// EntityEvidence is the provenance-carrying form of one derived entity:
// the tuple DeriveTuple would return, with per-component and per-handle
// supporting observations.
type EntityEvidence struct {
	Name  string
	User  bool
	Tuple core.Tuple
	// Components is empty for the user entity: the user's tuple is
	// modeled (they trivially know themself), not measured.
	Components []ComponentEvidence
	Links      []LinkEvidence
}

// SystemEvidence pairs a measured system (identical to DeriveSystem's
// output) with the evidence chain behind every tuple component and
// entity link. It is the input the provenance package renders.
type SystemEvidence struct {
	System   *core.System
	Entities []EntityEvidence
}

// DeriveTupleEvidence computes the same tuple as DeriveTuple but
// returns, per component, the observations establishing it. The
// component sequence (template axes first, then extras sorted by kind,
// label, descending level) is guaranteed to match DeriveTuple. The
// tuple is read before the log, so every level it reports has
// supporting observations in the log snapshot even mid-run.
func (l *Ledger) DeriveTupleEvidence(observer string, template core.Tuple) []ComponentEvidence {
	tuple := l.DeriveTuple(observer, template)
	byAxis := map[axis][]Observation{}
	for _, o := range l.ByObserver(observer) {
		a := axis{o.Kind, o.Label}
		byAxis[a] = append(byAxis[a], o)
	}
	out := make([]ComponentEvidence, 0, len(tuple))
	for i, c := range tuple {
		onAxis := byAxis[axis{c.Kind, c.Label}]
		var ev []Observation
		for _, o := range onAxis {
			if o.Level == c.Level {
				ev = append(ev, o)
			}
		}
		out = append(out, ComponentEvidence{
			Component: c,
			Extra:     i >= len(template),
			Evidence:  ev,
			AxisTotal: len(onAxis),
		})
	}
	return out
}

// LinkEvidenceFor returns, per distinct handle the entity holds (sorted
// like Handles), the observations carrying it. The handles are read
// before the log, so each has evidence in the log snapshot.
func (l *Ledger) LinkEvidenceFor(observer string) []LinkEvidence {
	handles := l.Handles(observer)
	byHandle := map[string][]Observation{}
	for _, o := range l.ByObserver(observer) {
		seen := map[string]bool{}
		for _, h := range o.Handles {
			if seen[h] { // an observation lists each handle once
				continue
			}
			seen[h] = true
			byHandle[h] = append(byHandle[h], o)
		}
	}
	out := make([]LinkEvidence, 0, len(handles))
	for _, h := range handles {
		out = append(out, LinkEvidence{Handle: h, Evidence: byHandle[h]})
	}
	return out
}

// DeriveSystemEvidence builds the provenance-carrying equivalent of
// DeriveSystem: the same measured system, plus per-entity component and
// link evidence. Like DeriveSystem it reads per-observer snapshots;
// call it after the run quiesces for a globally consistent audit.
func (l *Ledger) DeriveSystemEvidence(expected *core.System) *SystemEvidence {
	out := &SystemEvidence{System: l.DeriveSystem(expected)}
	for _, e := range expected.Entities {
		ee := EntityEvidence{Name: e.Name, User: e.User}
		if e.User {
			ee.Tuple = e.Knows
		} else {
			comps := l.DeriveTupleEvidence(e.Name, e.Knows)
			ee.Components = comps
			ee.Tuple = make(core.Tuple, 0, len(comps))
			for _, c := range comps {
				ee.Tuple = append(ee.Tuple, c.Component)
			}
			ee.Links = l.LinkEvidenceFor(e.Name)
		}
		out.Entities = append(out.Entities, ee)
	}
	return out
}
