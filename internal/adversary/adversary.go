// Package adversary implements the attacks the paper's analysis is
// defined against: collusion between entities (§4.1, §5.2), passive
// traffic analysis by timing and size (§4.3), and the information
// metrics used to quantify partial knowledge (anonymity sets, entropy).
//
// The collusion engine works over ledger observations: a coalition can
// join two facts only if a chain of shared linkage handles connects
// them. This is the operational meaning of decoupling — a mix
// re-encrypts and so breaks the handle chain; a VPN terminates both
// sides of a session and so holds records that share the session
// handle, linking everything it carries.
package adversary

import (
	"math"
	"sort"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

// LinkResult reports whether a coalition can tie one subject's sensitive
// identity to their sensitive data.
type LinkResult struct {
	Subject       string
	IdentityValue string
	DataValue     string
	Linked        bool
	// Path is the linkage chain proving the link: the minimal
	// chain of coalition observations, each sharing a handle with the
	// next, from a sensitive identity observation of the subject to a
	// sensitive (or partial) data observation. Populated only by
	// LinkSubjectsEvidence; nil from the fast LinkSubjects.
	Path []Hop
}

// Hop is one step of a linkage evidence chain: an observation (an
// index into the slice passed to LinkSubjectsEvidence) and the handle
// it shares with the next hop's observation ("" on the final hop).
type Hop struct {
	Obs    int
	Handle string
}

// LinkSubjects runs the coalition linkage attack: given all recorded
// observations and the names of colluding entities, it determines for
// each subject whether the coalition can connect a sensitive identity
// observation to a sensitive (or partial) data observation through a
// chain of shared linkage handles. Records that share no handle are two
// unrelated rows even inside one entity's database: a VPN couples its
// clients because both sides of a session carry the same session
// handle, not merely because both rows sit on the same disk.
func LinkSubjects(obs []ledger.Observation, coalition []string) []LinkResult {
	members := map[string]bool{}
	for _, m := range coalition {
		members[m] = true
	}

	link := core.NewLinkage(len(obs))
	idSides := map[string][]int{}
	dataSides := map[string][]int{}
	for i, o := range obs {
		if !members[o.Observer] {
			continue
		}
		link.Link(i, o.Handles)
		if !SubjectSide(o) {
			continue
		}
		if o.Kind == core.Identity {
			idSides[o.Subject] = append(idSides[o.Subject], i)
		} else {
			dataSides[o.Subject] = append(dataSides[o.Subject], i)
		}
	}

	subjects := make([]string, 0, len(idSides))
	for s := range idSides {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)

	var results []LinkResult
	for _, s := range subjects {
		ids, data := idSides[s], dataSides[s]
		r := LinkResult{Subject: s, IdentityValue: obs[ids[0]].Value}
	outer:
		for _, id := range ids {
			for _, d := range data {
				if link.Linked(id, d) {
					r.Linked = true
					r.IdentityValue = obs[id].Value
					r.DataValue = obs[d].Value
					break outer
				}
			}
		}
		if !r.Linked && len(data) > 0 {
			r.DataValue = obs[data[0]].Value
		}
		results = append(results, r)
	}
	return results
}

// SubjectSide reports whether o is one side of its subject's linkage —
// a sensitive identity, or sensitive (or partial) data — rather than
// only a link in a handle chain; o.Kind says which side.
func SubjectSide(o ledger.Observation) bool {
	switch {
	case o.Subject == "":
		return false
	case o.Kind == core.Identity:
		return o.Level == core.Sensitive
	case o.Kind == core.Data:
		return o.Level >= core.Partial
	}
	return false
}

// LinkageRate returns the fraction of subjects the coalition linked.
func LinkageRate(results []LinkResult) float64 {
	if len(results) == 0 {
		return 0
	}
	linked := 0
	for _, r := range results {
		if r.Linked {
			linked++
		}
	}
	return float64(linked) / float64(len(results))
}

// Event is a timed protocol event attributed (by ground truth) to a
// subject — a message entering or leaving an anonymity system.
type Event struct {
	Time    time.Duration
	Subject string
}

// TimingCorrelate mounts the rank-order timing attack: the adversary
// observes when messages enter and when they exit and pairs them by
// arrival order (the optimal strategy against a FIFO relay). It returns
// how many pairings identify the correct subject. Batch-and-shuffle
// forwarding (Chaum's defense, §3.1.2) degrades this toward random
// guessing within each batch.
func TimingCorrelate(entries, exits []Event) (correct, total int) {
	es := append([]Event(nil), entries...)
	xs := append([]Event(nil), exits...)
	sort.SliceStable(es, func(i, j int) bool { return es[i].Time < es[j].Time })
	sort.SliceStable(xs, func(i, j int) bool { return xs[i].Time < xs[j].Time })
	n := len(es)
	if len(xs) < n {
		n = len(xs)
	}
	for i := 0; i < n; i++ {
		if es[i].Subject == xs[i].Subject {
			correct++
		}
	}
	return correct, n
}

// Entropy returns the Shannon entropy (bits) of a count distribution.
func Entropy(counts map[string]int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// NormalizedEntropy returns Entropy divided by its maximum (log2 of the
// support size), in [0, 1]; 1 means the distribution is uniform.
func NormalizedEntropy(counts map[string]int) float64 {
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	if n <= 1 {
		return 0
	}
	return Entropy(counts) / math.Log2(float64(n))
}

// Round is one mix batch as a passive observer sees it: who sent into
// the mix and who received out of it during the round. Contents are
// unreadable; membership is not.
type Round struct {
	Senders   []string
	Receivers []string
}

// StatisticalDisclosure mounts the long-term intersection attack
// against a batching mix (Danezis' statistical disclosure, the
// strongest of the §4.3 "limits of what is feasible to infer" class):
// over many rounds, the receivers co-occurring with a target sender
// stand out statistically from the background. It returns receivers
// ranked by score = P(receiver | target sends) - P(receiver overall).
// Batching hides WHICH message in a round is the target's, but not THAT
// the target participated — only cover traffic (chaff) or per-round
// receiver diversity dilutes this signal.
func StatisticalDisclosure(rounds []Round, target string) []ScoredReceiver {
	withTarget := map[string]int{}
	overall := map[string]int{}
	targetRounds, totalRounds := 0, 0
	for _, r := range rounds {
		totalRounds++
		participated := false
		for _, s := range r.Senders {
			if s == target {
				participated = true
				break
			}
		}
		if participated {
			targetRounds++
		}
		seen := map[string]bool{}
		for _, rc := range r.Receivers {
			if seen[rc] {
				continue
			}
			seen[rc] = true
			overall[rc]++
			if participated {
				withTarget[rc]++
			}
		}
	}
	if targetRounds == 0 || totalRounds == 0 {
		return nil
	}
	var out []ScoredReceiver
	for rc, n := range overall {
		pAll := float64(n) / float64(totalRounds)
		pWith := float64(withTarget[rc]) / float64(targetRounds)
		out = append(out, ScoredReceiver{Receiver: rc, Score: pWith - pAll})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Receiver < out[j].Receiver
	})
	return out
}

// ScoredReceiver is one candidate communication partner with its
// disclosure score.
type ScoredReceiver struct {
	Receiver string
	Score    float64
}
