package adversary

import (
	"fmt"
	"sort"

	"decoupling/internal/core"
)

// This file is the static-analysis counterpart of the observation-graph
// coalition machinery: where LinkSubjects unions concrete observations
// over concrete handles after a run, CloseStatic unions *declared*
// entities over *declared* handle classes before any run exists. The
// two must agree on every scenario — the static closure is the bound
// the measured partitions are checked against.

// StaticPartition is one connected component of the declared
// entity/handle-class graph: the set of non-user entities that could
// join their knowledge if all of them colluded, with the merged tuple
// that collusion would pool.
type StaticPartition struct {
	// Entities are the member names, sorted.
	Entities []string
	// Handles are the shared handle classes connecting them, sorted.
	Handles []string
	// Merged is the pooled tuple, including any shared secrets whose
	// complete holder set lies inside the partition.
	Merged core.Tuple
	// Coupled reports whether full collusion inside this partition
	// re-couples a sensitive identity with sensitive (or partial) data.
	Coupled bool
	// Secrets names the shared secrets the partition can reconstruct.
	Secrets []string
}

// StaticClosure is the full static coalition analysis of a declared
// system: the per-partition worst case plus the minimum-coalition
// verdict from the same exhaustive search the measured side uses.
type StaticClosure struct {
	Verdict    core.Verdict
	Partitions []StaticPartition
}

// CloseStatic computes the static coalition closure of a declared
// system (typically schema.Static.System()). Entities with declared
// handle classes are grouped by handle connectivity; the merged tuple
// per group is the upper bound on what that group's collusion yields.
// The verdict reuses core.Analyze, so static and measured coalition
// degrees are directly comparable.
func CloseStatic(sys *core.System) (StaticClosure, error) {
	verdict, err := core.Analyze(sys)
	if err != nil {
		return StaticClosure{}, fmt.Errorf("adversary: static closure: %w", err)
	}
	cl := StaticClosure{Verdict: verdict}

	var members []core.Entity
	for _, e := range sys.Entities {
		if !e.User {
			members = append(members, e)
		}
	}
	// Unlike the conservative measured-side rule, an entity with no
	// declared handles forms its own partition: the schema explicitly
	// asserts it shares no join key with anyone.
	link := core.NewLinkage(len(members))
	for i, e := range members {
		link.Link(i, e.Links)
	}
	for _, idxs := range link.Groups(nil) {
		p := StaticPartition{}
		inPartition := map[string]bool{}
		handles := map[string]bool{}
		for _, i := range idxs {
			p.Merged = p.Merged.Merge(members[i].Knows)
			p.Entities = append(p.Entities, members[i].Name)
			inPartition[members[i].Name] = true
			for _, h := range members[i].Links {
				handles[h] = true
			}
		}
		for _, sec := range sys.SharedSecrets {
			if sec.HeldBy(inPartition) {
				p.Merged = p.Merged.Merge(core.Tuple{sec.Yields})
				p.Secrets = append(p.Secrets, sec.Name)
			}
		}
		sort.Strings(p.Entities)
		for h := range handles {
			p.Handles = append(p.Handles, h)
		}
		sort.Strings(p.Handles)
		sort.Strings(p.Secrets)
		p.Coupled = p.Merged.Coupled()
		cl.Partitions = append(cl.Partitions, p)
	}
	return cl, nil
}
