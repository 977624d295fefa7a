package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileGatesResolve lints the gates themselves. `go test -run
// 'A|B'` passes with "no tests to run" when A and B no longer exist, so
// a renamed or moved test silently turns its gate green: here every
// alternative of every -run pattern in the Makefile must match at least
// one func Test… in the packages that line names. And since CI runs
// `make <target>` over a list, that list must be `make ci`'s.
func TestMakefileGatesResolve(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	makefile := strings.ReplaceAll(string(raw), "\\\n", " ")

	runFlag := regexp.MustCompile(`-run\s+(?:'([^']*)'|(\S+))`)
	checked := 0
	for _, line := range strings.Split(makefile, "\n") {
		m := runFlag.FindStringSubmatch(line)
		if !strings.Contains(line, "$(GO) test") || m == nil {
			continue
		}
		pattern := strings.ReplaceAll(m[1]+m[2], "$$", "$")
		if pattern == "^$" {
			continue // benchmark and fuzz lines run no tests on purpose
		}
		var pkgs []string
		for _, field := range strings.Fields(line) {
			if strings.HasPrefix(field, "./") {
				pkgs = append(pkgs, field)
			}
		}
		names := testFuncs(t, pkgs)
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run alternative %q: %v", alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("-run alternative %q matches no test in %v:\n  %s", alt, pkgs, strings.TrimSpace(line))
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("checked only %d -run alternatives; the Makefile parse is broken", checked)
	}

	var ci []string
	for _, line := range strings.Split(makefile, "\n") {
		if rest, ok := strings.CutPrefix(line, "ci:"); ok {
			ci = strings.Fields(rest)
		}
	}
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`target:\s*\[([^\]]*)\]`).FindSubmatch(workflow)
	if m == nil {
		t.Fatal("no `target: [...]` matrix in .github/workflows/ci.yml")
	}
	matrix := strings.Split(strings.ReplaceAll(string(m[1]), " ", ""), ",")
	if len(ci) == 0 || !slices.Equal(ci, matrix) {
		t.Errorf("`make ci` prerequisites and the CI matrix differ:\n  make ci: %v\n  matrix:  %v", ci, matrix)
	}
}

// testFuncs lists the func Test… names declared in the _test.go files
// of pkgs (Makefile spellings: "./internal/serve/", or "./..." for
// every package).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	var names []string
	scan := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	for _, pkg := range pkgs {
		if pkg == "./..." {
			err := filepath.WalkDir(".", func(path string, _ os.DirEntry, err error) error {
				if err == nil && strings.HasSuffix(path, "_test.go") {
					scan(path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s has no test files (%v)", pkg, err)
		}
		for _, f := range files {
			scan(f)
		}
	}
	return names
}
