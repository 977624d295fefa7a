package tree

import "testing"

// FuzzDraftTree interprets the input as a batch of (parent, token)
// insertions — parent selectors wrap over the live arena, so the corpus
// freely spells chains, wide fans, duplicate paths and budget overflow
// — and checks the arena's invariants after every batch:
//
//   - insert: dedup per (parent, token), stable ids, budget respected
//     (Validate covers structure: parent-before-child, depth, sibling
//     consistency);
//   - walk: every draft node visited exactly once, parents first;
//   - longest accepted path: the BFS descent the verifier uses (accept
//     a node iff its token passes a predicate and its whole ancestry
//     passed) must agree with a brute-force scan over all root paths.
func FuzzDraftTree(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 10, 1, 11, 2, 12}, uint8(1))                // chain
	f.Add([]byte{0, 10, 0, 11, 0, 12, 0, 10}, uint8(2))         // fan + duplicate
	f.Add([]byte{0, 10, 1, 20, 1, 21, 0, 11, 4, 20}, uint8(3))  // two branches sharing a token
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6}, uint8(0)) // budget overflow
	f.Fuzz(func(t *testing.T, data []byte, acceptMod uint8) {
		budget := 0
		if len(data) > 0 {
			budget = int(data[0]%8) + 1 // small budgets keep overflow in play
		}
		tr := New(budget)
		for i := 0; i+1 < len(data); i += 2 {
			parent := int(data[i]) % len(tr.nodes)
			token := int(data[i+1])
			id, added := tr.Add(parent, token, OriginHead)
			if added {
				n := tr.Node(id)
				if int(n.Parent) != parent || n.Token != token {
					t.Fatalf("inserted node %d = %+v, want parent %d token %d", id, n, parent, token)
				}
			} else if id >= 0 {
				// Dedup: the returned node must really be parent's child
				// with this token.
				n := tr.Node(id)
				if int(n.Parent) != parent || n.Token != token {
					t.Fatalf("dedup returned node %d = %+v, want parent %d token %d", id, n, parent, token)
				}
			} else if !tr.Full() {
				t.Fatalf("Add refused (parent %d token %d) with budget headroom (%d/%d)",
					parent, token, tr.DraftNodes(), budget)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		}

		// Walk: every draft node once, parents before children.
		visited := map[int]bool{Root: true}
		count := 0
		tr.Walk(func(id int, n Node) {
			count++
			if visited[id] {
				t.Fatalf("walk revisited node %d", id)
			}
			if !visited[int(n.Parent)] {
				t.Fatalf("walk reached node %d before its parent %d", id, n.Parent)
			}
			visited[id] = true
		})
		if count != tr.DraftNodes() {
			t.Fatalf("walk visited %d nodes, want %d", count, tr.DraftNodes())
		}

		// Longest accepted path: BFS descent vs brute force.
		mod := int(acceptMod%3) + 2
		accept := func(tok int) bool { return tok%mod != 0 }
		bfsBest, bfsDepth := deepestAcceptedBFS(tr, accept)
		bruteDepth := 0
		tr.Walk(func(id int, n Node) {
			ok := true
			for c := id; c != Root; c = int(tr.Node(c).Parent) {
				if !accept(tr.Node(c).Token) {
					ok = false
					break
				}
			}
			if ok && tr.Depth(id) > bruteDepth {
				bruteDepth = tr.Depth(id)
			}
		})
		if bfsDepth != bruteDepth {
			t.Fatalf("BFS deepest accepted depth %d, brute force %d", bfsDepth, bruteDepth)
		}
		path := tr.PathTokens(bfsBest, nil)
		if len(path) != bfsDepth {
			t.Fatalf("accepted path %v has length %d, want depth %d", path, len(path), bfsDepth)
		}
		for _, tok := range path {
			if !accept(tok) {
				t.Fatalf("accepted path %v contains rejected token %d", path, tok)
			}
		}
	})
}

// deepestAcceptedBFS mirrors the verifier's descent: children of
// accepted nodes are screened in insertion order, and the first node
// reaching each new maximum depth wins.
func deepestAcceptedBFS(tr *Tree, accept func(tok int) bool) (best, depth int) {
	best, depth = Root, 0
	queue := []int{Root}
	var kids []int
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		kids = tr.Children(n, kids[:0])
		for _, c := range kids {
			if !accept(tr.Node(c).Token) {
				continue
			}
			queue = append(queue, c)
			if tr.Depth(c) > depth {
				best, depth = c, tr.Depth(c)
			}
		}
	}
	return best, depth
}
