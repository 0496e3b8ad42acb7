package core

// Linkage is the §4.1 join rule as a disjoint-set: colluders can join
// two facts only along a chain of shared linkage handles. The caller
// numbers the nodes (entities, observations) 0..n-1; Link joins a node
// with every node already holding one of its handles, so two nodes end
// up in one group exactly when a chain of shared handles connects them.
// Every collusion verdict, static closure, provenance partition and
// trace-plane audit groups through this one type.
type Linkage struct {
	parent []int
	// holder maps each handle to the first node linked with it; every
	// later holder joins that node.
	holder map[string]int
}

// NewLinkage returns n unlinked nodes.
func NewLinkage(n int) *Linkage {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	return &Linkage{parent: parent, holder: map[string]int{}}
}

// Link joins node i with every node already holding one of handles.
func (l *Linkage) Link(i int, handles []string) {
	for _, h := range handles {
		if j, ok := l.holder[h]; ok {
			l.Join(i, j)
		} else {
			l.holder[h] = i
		}
	}
}

// Join puts nodes i and j in one group.
func (l *Linkage) Join(i, j int) { l.parent[l.find(i)] = l.find(j) }

// Linked reports whether nodes i and j are in one group.
func (l *Linkage) Linked(i, j int) bool { return l.find(i) == l.find(j) }

// Groups returns the groups of the nodes keep marks (every node when
// keep is nil), members ascending and groups ordered by lowest member.
// Unkept nodes still carry chains between kept ones.
func (l *Linkage) Groups(keep []bool) [][]int {
	var groups [][]int
	slot := make([]int, len(l.parent)) // root -> group index + 1
	for i := range l.parent {
		if keep != nil && !keep[i] {
			continue
		}
		r := l.find(i)
		if slot[r] == 0 {
			groups = append(groups, nil)
			slot[r] = len(groups)
		}
		groups[slot[r]-1] = append(groups[slot[r]-1], i)
	}
	return groups
}

// find returns i's group root, halving the path as it goes.
func (l *Linkage) find(i int) int {
	for l.parent[i] != i {
		l.parent[i] = l.parent[l.parent[i]]
		i = l.parent[i]
	}
	return i
}
