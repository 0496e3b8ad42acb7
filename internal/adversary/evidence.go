package adversary

import (
	"sort"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

// LinkSubjectsEvidence runs the same coalition linkage attack as
// LinkSubjects but additionally reconstructs, for every linked
// subject, the linkage chain: the minimal alternating chain
// observation → shared handle → observation … proving the coalition
// joined a sensitive identity to sensitive data. The chain is found by
// breadth-first search over the bipartite observation/handle graph, so
// it is a shortest such chain; iteration orders are fixed, making the
// result deterministic for a given observation slice.
//
// The Linked verdicts are identical to LinkSubjects (both report
// connectivity of the same partition); the chosen identity/data values
// may differ, because the evidence variant reports the endpoints of the
// shortest chain rather than the first pair scanned.
func LinkSubjectsEvidence(obs []ledger.Observation, coalition []string) []LinkResult {
	members := map[string]bool{}
	for _, m := range coalition {
		members[m] = true
	}

	// Adjacency: observation index -> handles, handle -> observation
	// indices (ascending, the order we appended them).
	handleObs := map[string][]int{}
	idSides := map[string][]int{}
	dataSides := map[string]map[int]bool{}
	for i, o := range obs {
		if !members[o.Observer] {
			continue
		}
		for _, h := range o.Handles {
			handleObs[h] = append(handleObs[h], i)
		}
		if !SubjectSide(o) {
			continue
		}
		if o.Kind == core.Identity {
			idSides[o.Subject] = append(idSides[o.Subject], i)
		} else {
			if dataSides[o.Subject] == nil {
				dataSides[o.Subject] = map[int]bool{}
			}
			dataSides[o.Subject][i] = true
		}
	}

	subjects := make([]string, 0, len(idSides))
	for s := range idSides {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)

	var results []LinkResult
	for _, s := range subjects {
		r := LinkResult{Subject: s}
		if len(idSides[s]) > 0 {
			r.IdentityValue = obs[idSides[s][0]].Value
		}
		for _, start := range idSides[s] {
			if path := shortestChain(obs, handleObs, start, dataSides[s]); path != nil {
				r.Linked = true
				r.Path = path
				r.IdentityValue = obs[path[0].Obs].Value
				r.DataValue = obs[path[len(path)-1].Obs].Value
				break
			}
		}
		if !r.Linked && len(dataSides[s]) > 0 {
			// Deterministic representative: the earliest data observation.
			min := -1
			for i := range dataSides[s] {
				if min < 0 || i < min {
					min = i
				}
			}
			r.DataValue = obs[min].Value
		}
		results = append(results, r)
	}
	return results
}

// shortestChain BFSes from the start observation to any observation in
// targets, stepping observation → handle → observation. It returns the
// hop list including start and the reached target, or nil when no
// target is reachable. A start that is itself a target yields a
// single-hop chain.
func shortestChain(obs []ledger.Observation, handleObs map[string][]int, start int, targets map[int]bool) []Hop {
	if targets[start] {
		return []Hop{{Obs: start}}
	}
	parents := map[int]chainParent{start: {prev: -1}}
	frontier := []int{start}
	for len(frontier) > 0 {
		var next []int
		for _, i := range frontier {
			for _, h := range obs[i].Handles {
				for _, j := range handleObs[h] {
					if _, seen := parents[j]; seen {
						continue
					}
					parents[j] = chainParent{prev: i, handle: h}
					if targets[j] {
						return buildChain(parents, j)
					}
					next = append(next, j)
				}
			}
		}
		frontier = next
	}
	return nil
}

// chainParent records how BFS first reached an observation: from which
// previous observation, over which shared handle.
type chainParent struct {
	prev   int
	handle string
}

// buildChain walks parent pointers back from the reached data
// observation to the identity start, emitting hops in forward order.
func buildChain(parents map[int]chainParent, end int) []Hop {
	var rev []Hop
	for i := end; i >= 0; {
		p := parents[i]
		rev = append(rev, Hop{Obs: i, Handle: p.handle})
		i = p.prev
	}
	out := make([]Hop, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	// The handle recorded on each node is the edge *into* it; shift so
	// each hop carries the handle shared with the next observation, and
	// the final hop carries none.
	for i := 0; i < len(out)-1; i++ {
		out[i].Handle = out[i+1].Handle
	}
	out[len(out)-1].Handle = ""
	return out
}
