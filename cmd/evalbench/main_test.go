package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestExperimentTableIsTheOneList holds every spelling of the
// experiment names to the table: names are unique, the package
// comment's usage line and the -exp flag help list exactly them (plus
// "all"), and every -exp value written in README.md, the Makefile and
// the CI workflow resolves.
func TestExperimentTableIsTheOneList(t *testing.T) {
	names := experimentNames()
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	if dup := slices.Compact(slices.Clone(sorted)); len(dup) != len(names) {
		t.Fatalf("experiment names are not unique: %v", names)
	}
	want := append(slices.Clone(names), "all")

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	usage := regexp.MustCompile(`(?m)^//\s+evalbench -exp ([a-z0-9|]+)$`).FindSubmatch(src)
	if usage == nil {
		t.Fatal("no `evalbench -exp a|b|…` usage line in the package comment")
	}
	if got := strings.Split(string(usage[1]), "|"); !slices.Equal(got, want) {
		t.Errorf("usage comment lists %v, table has %v", got, want)
	}

	var stderr bytes.Buffer
	if code := run([]string{"-h"}, &bytes.Buffer{}, &stderr); code != 0 {
		t.Errorf("-h exit code = %d, want 0", code)
	}
	if help := "comma-separated: " + strings.Join(names, ", ") + " or all"; !strings.Contains(stderr.String(), help) {
		t.Errorf("-exp flag help does not list the table:\n%s", stderr.String())
	}

	spelled := regexp.MustCompile(`-exp[ =]([a-z0-9,|]+)`)
	for _, path := range []string{"../../README.md", "../../Makefile", "../../.github/workflows/ci.yml"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range spelled.FindAllSubmatch(doc, -1) {
			if _, err := resolve(strings.ReplaceAll(string(m[1]), "|", ",")); err != nil {
				t.Errorf("%s spells `-exp %s`: %v", path, m[1], err)
			}
		}
	}
}

// TestBadInputExitsBeforeAnyWork: an unknown experiment name or a
// malformed -temps / -sizes element exits 2 with the reason on stderr,
// before the corpus is built — `-exp all,typo` used to run the whole
// harness first, and `-temps 0.2,abc` used to evaluate at temperature 0.
func TestBadInputExitsBeforeAnyWork(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "all,typo"}, `unknown experiment "typo"`},
		{[]string{"-exp", "fleet"}, `unknown experiment "fleet"`},
		{[]string{"-exp", "fig5", "-temps", "0.2,abc"}, `"abc" is not a temperature`},
		{[]string{"-exp", "fig5", "-temps", "nan"}, `"nan" is not a temperature`},
		{[]string{"-exp", "fig5", "-sizes", "2,x"}, `"x" is not a numerator`},
		{[]string{"-exp", "fig5", "-sizes", "4,2"}, `"2" is not a numerator over 4 in increasing order`},
		{[]string{"-exp", "fig5", "-sizes", "5"}, `"5" is not a numerator`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-quick"}, tc.args...), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran before rejecting the input:\n%s", tc.args, stdout.String())
		}
	}
}

// TestResolveKeepsTableOrder: -exp is a set; experiments run in table
// order however the list is spelled, and "all" is the whole table.
func TestResolveKeepsTableOrder(t *testing.T) {
	got, err := resolve("fig5, matrix,table2,matrix")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range got {
		names = append(names, e.name)
	}
	if want := []string{"table2", "matrix", "fig5"}; !slices.Equal(names, want) {
		t.Errorf("resolve order = %v, want %v", names, want)
	}
	if all, err := resolve("all"); err != nil || len(all) != len(experimentTable) {
		t.Errorf("resolve(all) = %d experiments, %v; want %d", len(all), err, len(experimentTable))
	}
}
