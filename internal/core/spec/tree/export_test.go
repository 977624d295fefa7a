package tree

// Walk visits every node except the root in index order (parents before
// children, insertion order within a level's parent), for the tests'
// audits of the arena.
func (t *Tree) Walk(fn func(id int, n Node)) {
	for i := 1; i < len(t.nodes); i++ {
		fn(i, t.nodes[i])
	}
}
