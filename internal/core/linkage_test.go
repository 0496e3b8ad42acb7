package core

import (
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// FuzzLinkage checks Linkage against a naive closure: one group per
// node holding its handles, any two groups sharing a handle merged
// until nothing changes, unkept nodes dropped, members ascending and
// groups ordered by lowest member. The fuzzer's bytes spell up to 32
// nodes: 0 starts the next node, 240–255 join the current node with
// node b%16 (mod the node count), and any other byte gives the current
// node handle b%8. Bit i of keepBits keeps node i.
func FuzzLinkage(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{1, 0, 2, 0, 1, 2, 0, 3}, uint32(0xff))
	f.Add([]byte{1, 0, 3, 0, 2, 0, 2, 9, 0, 4, 0, 0, 243, 0, 5, 13}, uint32(0b101101))
	f.Add([]byte{1, 0, 0, 241, 0, 1, 0, 2, 0, 2, 240}, uint32(0b11010))
	f.Fuzz(func(t *testing.T, spec []byte, keepBits uint32) {
		nodes := [][]string{nil}
		var joins [][2]int
		for _, b := range spec {
			last := len(nodes) - 1
			switch {
			case b == 0:
				if len(nodes) == 32 {
					return
				}
				nodes = append(nodes, nil)
			case b >= 240:
				joins = append(joins, [2]int{last, int(b % 16)})
			default:
				nodes[last] = append(nodes[last], strconv.Itoa(int(b%8)))
			}
		}
		n := len(nodes)
		for k := range joins {
			joins[k][1] %= n
		}

		link := NewLinkage(n)
		for i, hs := range nodes {
			link.Link(i, hs)
			for _, j := range joins {
				if j[0] == i {
					link.Join(j[0], j[1])
				}
			}
		}
		keep := make([]bool, n)
		all := make([]bool, n)
		for i := range keep {
			keep[i] = keepBits>>i&1 == 1
			all[i] = true
		}

		want := naiveClosure(nodes, joins)
		for _, tc := range []struct {
			name string
			keep []bool
			mask []bool
		}{{"keep", keep, keep}, {"nil", nil, all}} {
			got := link.Groups(tc.keep)
			if w := keepOnly(want, tc.mask); !reflect.DeepEqual(got, w) {
				t.Fatalf("Groups(%s) = %v, want %v (nodes %q, joins %v)", tc.name, got, w, nodes, joins)
			}
		}
		group := make([]int, n)
		for g, members := range want {
			for _, i := range members {
				group[i] = g
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := link.Linked(i, j); got != (group[i] == group[j]) {
					t.Fatalf("Linked(%d, %d) = %v, want %v", i, j, got, !got)
				}
			}
		}
	})
}

// naiveClosure is the fixpoint FuzzLinkage checks against: a join is a
// handle only its two nodes hold.
func naiveClosure(nodes [][]string, joins [][2]int) [][]int {
	type group struct {
		members []int
		handles map[string]bool
	}
	groups := make([]*group, len(nodes))
	for i, hs := range nodes {
		groups[i] = &group{members: []int{i}, handles: map[string]bool{}}
		for _, h := range hs {
			groups[i].handles["h"+h] = true
		}
	}
	for k, j := range joins {
		for _, i := range j {
			groups[i].handles["j"+strconv.Itoa(k)] = true
		}
	}
	for merged := true; merged; {
		merged = false
		for a := 0; a < len(groups) && !merged; a++ {
			for b := a + 1; b < len(groups) && !merged; b++ {
				for h := range groups[b].handles {
					if groups[a].handles[h] {
						merged = true
						break
					}
				}
				if merged {
					groups[a].members = append(groups[a].members, groups[b].members...)
					for h := range groups[b].handles {
						groups[a].handles[h] = true
					}
					groups = append(groups[:b], groups[b+1:]...)
				}
			}
		}
	}
	out := make([][]int, len(groups))
	for g := range groups {
		out[g] = groups[g].members
		sort.Ints(out[g])
	}
	return out
}

// keepOnly drops the members mask leaves out and the groups left
// empty, then orders the rest by lowest kept member.
func keepOnly(groups [][]int, mask []bool) [][]int {
	var out [][]int
	for _, g := range groups {
		var kept []int
		for _, i := range g {
			if mask[i] {
				kept = append(kept, i)
			}
		}
		if kept != nil {
			out = append(out, kept)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}
