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
// tree's shape, so it holds Inspect to every field a node type has. A
// node with two parents (the one delay of a multi-target assign) is
// counted once per parent, as Inspect visits it.
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
