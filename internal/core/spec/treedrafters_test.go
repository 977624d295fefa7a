package spec

import (
	"testing"

	"repro/internal/core/spec/tree"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

func TestTreeStrategiesRegistered(t *testing.T) {
	for name, display := range map[string]string{
		"medusa-tree": "MedusaTree", "MedusaTree": "MedusaTree",
		"lookup-tree": "LookupTree", "LookupTree": "LookupTree",
		"ours-tree": "OursTree", "OURSTREE": "OursTree",
	} {
		s, ok := Named(name)
		if !ok {
			t.Fatalf("Named(%q) not found", name)
		}
		if s.Name != display {
			t.Errorf("Named(%q).Name = %q, want %q", name, s.Name, display)
		}
		if !IsTree(s.Drafter) {
			t.Errorf("Named(%q) drafter %T is not a tree drafter", name, s.Drafter)
		}
		// Nothing to draft from (no heads, no history): no tree and an
		// empty chain, which proposes nothing.
		if d := s.Drafter.Draft(DraftCtx{}, DefaultTreeBudget); d.Tree != nil || !d.Chain.Empty() {
			t.Errorf("Named(%q) drafted from nothing: %+v", name, d)
		}
	}
	s, _ := Named("ours-tree")
	if _, wrapped := s.Verifier.(Integrity); !wrapped {
		t.Fatal("ours-tree verifier not integrity-wrapped")
	}
}

func TestRegisteredInfo(t *testing.T) {
	infos := Registered()
	if len(infos) != len(Names()) {
		t.Fatalf("Registered() has %d entries, Names() %d", len(infos), len(Names()))
	}
	byName := map[string]Info{}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Canonical >= infos[i].Canonical {
			t.Fatalf("Registered() not sorted: %q before %q", infos[i-1].Canonical, infos[i].Canonical)
		}
	}
	for _, in := range infos {
		byName[in.Canonical] = in
	}
	lt := byName["lookup-tree"]
	if !lt.Tree || lt.NeedsHeads || lt.Display != "LookupTree" || lt.Verifier != "greedy-exact" {
		t.Fatalf("lookup-tree info = %+v", lt)
	}
	if mt := byName["medusa-tree"]; !mt.Tree || !mt.NeedsHeads {
		t.Fatalf("medusa-tree info = %+v", mt)
	}
	if ntp := byName["ntp"]; ntp.Tree {
		t.Fatalf("ntp info claims a tree drafter: %+v", ntp)
	}
	if pl := byName["prompt-lookup"]; pl.Display != "PromptLookup" {
		t.Fatalf("prompt-lookup info = %+v", pl)
	}
}

func TestMedusaTreeBuild(t *testing.T) {
	fw := model.NewForward(model.Dist{},
		dist(map[int]float64{10: 0.5, 11: 0.3, 12: 0.2}),
		dist(map[int]float64{20: 0.6, 21: 0.4}),
		dist(map[int]float64{30: 1.0}),
	)
	d := medusaTree.Draft(DraftCtx{Forward: fw, TopK: 3}, DefaultTreeBudget)
	tr := d.Tree
	if tr == nil {
		t.Fatal("no tree built")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two full-width static levels: depth 1 carries head 0's top-k,
	// depth 2 head 1's (only two tokens in its support here); deeper
	// positions belong to the chain tail, not the static tree.
	kids := tr.Children(tree.Root, nil)
	if len(kids) != 3 {
		t.Fatalf("root has %d children, want 3", len(kids))
	}
	for _, k := range kids {
		sub := tr.Children(k, nil)
		if len(sub) != 2 {
			t.Fatalf("depth-1 node has %d children, want 2", len(sub))
		}
		for _, s := range sub {
			if chain := tr.Children(s, nil); len(chain) != 0 {
				t.Fatalf("depth-2 node has %d static children, want 0 (chain tail is adaptive)", len(chain))
			}
		}
	}
	// 3 + 3·2 draft nodes.
	if tr.DraftNodes() != 9 {
		t.Fatalf("draft nodes = %d, want 9", tr.DraftNodes())
	}
	// The chain tail reads the remaining heads position by position.
	if ext := d.Chain.Candidates(2); len(ext) != 1 || ext[0] != 30 {
		t.Fatalf("Candidates(2) = %v, want [30]", ext)
	}
	if ext := d.Chain.Candidates(3); ext != nil {
		t.Fatalf("Candidates past the last head = %v", ext)
	}
	// A tight budget truncates instead of overflowing.
	small := medusaTree.Draft(DraftCtx{Forward: fw, TopK: 3}, 4).Tree
	if small.DraftNodes() != 4 {
		t.Fatalf("budget-4 tree has %d draft nodes", small.DraftNodes())
	}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	// No heads, no tree (the NTP-backbone fast path).
	if tr := medusaTree.Draft(DraftCtx{TopK: 3}, 8).Tree; tr != nil {
		t.Fatal("medusaTree drafted without heads")
	}
}

func TestMedusaTreeStopsAtEos(t *testing.T) {
	fw := model.NewForward(model.Dist{},
		dist(map[int]float64{tokenizer.EosID: 1.0}),
		dist(map[int]float64{20: 1.0}),
	)
	tr := medusaTree.Draft(DraftCtx{Forward: fw, TopK: 1}, DefaultTreeBudget).Tree
	if tr.DraftNodes() != 1 {
		t.Fatalf("draft nodes = %d, want 1 (nothing extends past <eos>)", tr.DraftNodes())
	}
}

func TestLookupRunsLeadsWithLinearRun(t *testing.T) {
	// Sequence with the suffix [7 8 9] occurring twice earlier with
	// different continuations: most recent first, then the older one.
	seq := []int{7, 8, 9, 50, 51, 99, 7, 8, 9, 60, 61, 99, 7, 8, 9}
	linear := lookupRun(seq, 3, 10)
	runs := lookupRuns(seq, 3, 10, 4)
	if len(runs) < 2 {
		t.Fatalf("runs = %v, want at least the two distinct continuations", runs)
	}
	if len(linear) == 0 {
		t.Fatal("linear lookup found nothing")
	}
	for i, id := range linear {
		if runs[0][i] != id {
			t.Fatalf("runs[0] = %v, want the linear run %v", runs[0], linear)
		}
	}
	// The older occurrence's continuation must appear as another branch.
	found := false
	for _, r := range runs[1:] {
		if len(r) > 0 && r[0] == 50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("older match continuation missing from %v", runs)
	}
}

func TestLookupTreeBuildsSharedPrefixBranches(t *testing.T) {
	seq := []int{7, 8, 9, 40, 41, 99, 7, 8, 9, 40, 55, 99, 7, 8, 9}
	d := lookupTree.Draft(DraftCtx{Seq: seq}, DefaultTreeBudget)
	tr := d.Tree
	if tr == nil {
		t.Fatal("no tree built")
	}
	// Lookup continuations are laid into the tree in full: no chain.
	if !d.Chain.Empty() {
		t.Fatalf("lookup tree carries a chain: %+v", d.Chain)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both continuations start with 40: one shared depth-1 node, two
	// children below it (55-first — most recent — then 41).
	kids := tr.Children(tree.Root, nil)
	if len(kids) != 1 || tr.Node(kids[0]).Token != 40 {
		t.Fatalf("root children = %v (tokens %v)", kids, rootTokens(tr))
	}
	sub := tr.Children(kids[0], nil)
	if len(sub) != 2 {
		t.Fatalf("shared-prefix node has %d children, want 2", len(sub))
	}
	if tr.Node(sub[0]).Token != 55 || tr.Node(sub[1]).Token != 41 {
		t.Fatalf("branch tokens = [%d %d], want [55 41] (most recent first)",
			tr.Node(sub[0]).Token, tr.Node(sub[1]).Token)
	}
}

func TestHybridTreeUnionsBranches(t *testing.T) {
	seq := []int{7, 8, 9, 40, 41, 99, 7, 8, 9}
	fw := model.NewForward(model.Dist{},
		dist(map[int]float64{40: 0.6, 90: 0.4}), // 40 dedups into the lookup chain
		dist(map[int]float64{91: 1.0}),
	)
	d := hybridTree.Draft(DraftCtx{Seq: seq, Forward: fw, TopK: 2}, DefaultTreeBudget)
	tr := d.Tree
	if tr == nil {
		t.Fatal("no tree built")
	}
	// Surviving branches continue with the head chain.
	if got := d.Chain.Candidates(0); len(got) != 2 || got[0] != 40 {
		t.Fatalf("chain candidates(0) = %v, want head 0's top-2", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	kids := tr.Children(tree.Root, nil)
	if len(kids) != 2 {
		t.Fatalf("root children tokens = %v, want lookup 40 + head 90", rootTokens(tr))
	}
	if tr.Node(kids[0]).Token != 40 || tr.Node(kids[0]).Origin != tree.OriginLookup {
		t.Fatalf("first branch = token %d origin %v, want lookup 40",
			tr.Node(kids[0]).Token, tr.Node(kids[0]).Origin)
	}
	if tr.Node(kids[1]).Token != 90 || tr.Node(kids[1]).Origin != tree.OriginHead {
		t.Fatalf("second branch = token %d origin %v, want head 90",
			tr.Node(kids[1]).Token, tr.Node(kids[1]).Origin)
	}
}

func rootTokens(tr *tree.Tree) []int {
	var out []int
	for _, k := range tr.Children(tree.Root, nil) {
		out = append(out, tr.Node(k).Token)
	}
	return out
}
