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
// 'A|B'` passes with "no tests to run" when A and B no longer exist,
// and `-bench`/`-fuzz` patterns that match nothing exit 0 just the
// same, so a renamed or moved test, benchmark or fuzz target silently
// turns its gate green: here every alternative of every -run pattern
// in the Makefile must match at least one func Test… in the packages
// that line names, every -bench alternative a func Benchmark…, and
// every -fuzz pattern exactly one func Fuzz… (go test refuses more).
// .PHONY must list exactly the defined targets, so a deleted target
// cannot linger there. And since CI runs `make <target>` over a list,
// that list must be `make ci`'s.
func TestMakefileGatesResolve(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	makefile := strings.ReplaceAll(string(raw), "\\\n", " ")

	flags := []struct {
		kind string // the func prefix the flag's pattern selects
		re   *regexp.Regexp
	}{
		{"Test", regexp.MustCompile(`-run[=\s]+(?:'([^']*)'|(\S+))`)},
		{"Benchmark", regexp.MustCompile(`-bench[=\s]+(?:'([^']*)'|(\S+))`)},
		{"Fuzz", regexp.MustCompile(`-fuzz[=\s]+(?:'([^']*)'|(\S+))`)},
	}
	checked := map[string]int{}
	for _, line := range strings.Split(makefile, "\n") {
		if !strings.Contains(line, "$(GO) test") {
			continue
		}
		var pkgs []string
		for _, field := range strings.Fields(line) {
			if strings.HasPrefix(field, "./") {
				pkgs = append(pkgs, field)
			}
		}
		for _, f := range flags {
			m := f.re.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern := strings.ReplaceAll(m[1]+m[2], "$$", "$")
			if pattern == "^$" {
				continue // benchmark and fuzz lines run no tests on purpose
			}
			names := funcs(t, f.kind, pkgs)
			alts := strings.Split(pattern, "|")
			if f.kind == "Fuzz" {
				alts = []string{pattern}
			}
			for _, alt := range alts {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("-%s alternative %q: %v", f.kind, alt, err)
					continue
				}
				n := 0
				for _, name := range names {
					if re.MatchString(name) {
						n++
					}
				}
				if n == 0 || f.kind == "Fuzz" && n > 1 {
					t.Errorf("%q matches %d func %s… in %v:\n  %s", alt, n, f.kind, pkgs, strings.TrimSpace(line))
				}
				checked[f.kind]++
			}
		}
	}
	if checked["Test"] < 20 || checked["Benchmark"] < 3 || checked["Fuzz"] < 5 {
		t.Fatalf("checked only %v pattern alternatives; the Makefile parse is broken", checked)
	}

	var ci, phony, targets []string
	target := regexp.MustCompile(`^([a-z][a-z0-9-]*):([^=]|$)`)
	for _, line := range strings.Split(makefile, "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			phony = strings.Fields(rest)
		} else if m := target.FindStringSubmatch(line); m != nil {
			targets = append(targets, m[1])
		}
		if rest, ok := strings.CutPrefix(line, "ci:"); ok {
			ci = strings.Fields(rest)
		}
	}
	slices.Sort(phony)
	slices.Sort(targets)
	if len(targets) == 0 || !slices.Equal(phony, targets) {
		t.Errorf(".PHONY and the defined targets differ:\n  .PHONY:  %v\n  targets: %v", phony, targets)
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

// funcs lists the func <kind>… names (kind "Test", "Benchmark" or
// "Fuzz") declared in the _test.go files of pkgs (Makefile spellings:
// "./internal/serve/", or "./..." for every package).
func funcs(t *testing.T, kind string, pkgs []string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (` + kind + `\w*)\(`)
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
