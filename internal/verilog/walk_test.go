package verilog_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/verilog"
)

// reachable counts every Node reachable from n through exported fields
// (interfaces, pointers, slices and nested structs), without descending
// below a node for which prune returns true. It knows nothing of the
// tree's shape, so it holds Inspect to every field a node type has,
// save a Range's bounds, which Inspect leaves out by design
// (TestInspectSkipsRangeBounds). A node with two parents (the one delay
// of a multi-target assign) is counted once per parent, as Inspect
// visits it.
func reachable(n verilog.Node, prune func(verilog.Node) bool) map[verilog.Node]int {
	seen := map[verilog.Node]int{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface, reflect.Pointer:
			if v.IsNil() {
				return
			}
			if node, ok := v.Interface().(verilog.Node); ok && v.Kind() == reflect.Pointer {
				seen[node]++
				if prune(node) {
					return
				}
			}
			walk(v.Elem())
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			if v.Type() == reflect.TypeOf(verilog.Range{}) {
				return
			}
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					walk(v.Field(i))
				}
			}
		}
	}
	walk(reflect.ValueOf(n))
	return seen
}

// checkInspect fails t unless Inspect visits every node reachable from
// f exactly as often as it is reachable, both when the visitor descends
// everywhere and when it declines to descend below some nodes.
func checkInspect(t *testing.T, f *verilog.SourceFile) {
	t.Helper()
	prunes := map[string]func(verilog.Node) bool{
		"descend everywhere": func(verilog.Node) bool { return false },
		"prune even lines": func(n verilog.Node) bool {
			_, root := n.(*verilog.SourceFile)
			return !root && n.Pos()%2 == 0
		},
	}
	for name, prune := range prunes {
		want := reachable(f, prune)
		got := map[verilog.Node]int{}
		verilog.Inspect(f, func(n verilog.Node) bool {
			got[n]++
			return !prune(n)
		})
		for n, c := range want {
			if got[n] != c {
				t.Fatalf("%s: Inspect visits %T at line %d %d times, want %d", name, n, n.Pos(), got[n], c)
			}
		}
		for n, c := range got {
			if want[n] == 0 {
				t.Fatalf("%s: Inspect visits %T at line %d %d times, want 0", name, n, n.Pos(), c)
			}
		}
	}
}

func TestInspectVisitsEveryNode(t *testing.T) {
	var srcs []string
	for _, p := range bench.All() {
		srcs = append(srcs, p.Ref, p.Testbench)
	}
	parsed := 0
	for _, src := range append(srcs, parserSeeds...) {
		f, err := verilog.Parse(src)
		if err != nil {
			continue
		}
		parsed++
		checkInspect(t, f)
	}
	if parsed < 2*len(bench.All()) {
		t.Fatalf("only %d of %d sources parsed", parsed, len(srcs)+len(parserSeeds))
	}
}

// TestInspectSkipsRangeBounds: Inspect visits no bound expression of a
// port, net or memory range, so frag's significant tokens, and with
// them the training bytes, stay what they were before the tree kept
// the expressions.
func TestInspectSkipsRangeBounds(t *testing.T) {
	f, err := verilog.Parse(`module m #(parameter W = 4) (input [W-1:0] a, output [W:0] y);
  parameter [7:0] D = 2;
  reg [W-1:0] r, s [0:D*2-1];
  wire [3:0] n = 4'd1;
  assign y = a + r;
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Modules[0]
	bounds := map[verilog.Node]bool{}
	addBounds := func(r verilog.Range) {
		bounds[r.MSBExpr], bounds[r.LSBExpr] = true, true
	}
	for _, p := range m.Ports {
		addBounds(p.Rng)
	}
	for _, it := range m.Items {
		if nd, ok := it.(*verilog.NetDecl); ok {
			addBounds(nd.Rng)
			for _, dn := range nd.Names {
				if dn.IsArray {
					addBounds(dn.ARng)
				}
			}
		}
	}
	if len(bounds) != 10 {
		t.Fatalf("%d range bounds, want 10", len(bounds))
	}
	visited := 0
	verilog.Inspect(f, func(n verilog.Node) bool {
		visited++
		if bounds[n] {
			t.Errorf("Inspect visits the range bound %T at line %d", n, n.Pos())
		}
		return true
	})
	if visited == 0 {
		t.Fatal("Inspect visited nothing")
	}
}
