package main

import (
	"go/ast"
	"go/parser"
	"go/token"
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

// testOnlyAllowed lists the declarations TestNoTestOnlyExports lets
// stand with no non-test caller, each with its reason. A key is the
// declaring package's directory and the name, with the receiver type
// for a method; a directory alone allows its whole package.
var testOnlyAllowed = map[string]string{
	"internal/verilog.CheckPrefix":          "the grammar oracle's reference semantics (TestCheckMatchesCheckPrefix)",
	"internal/promtest":                     "a package of test helpers for other packages' tests",
	"internal/model.NewDist":                "builds fixtures in other packages' tests",
	"internal/model.NewForward":             "builds fixtures in other packages' tests",
	"internal/core/spec/tree.Tree.Validate": "the arena invariant other packages' tests assert",
	"internal/tokenizer.UnkID":              "a reserved id: the vocabulary's first ids are fixed",
	"internal/verilog/sim.eventHeap.Swap":   "part of heap.Interface, called by container/heap",
}

// TestNoTestOnlyExports keeps the production surface what production
// calls. A go/parser name scan over the module: every exported name
// declared outside benchmark/ (function, method, type, variable or
// constant) must be referenced by some non-test file of the module,
// and every unexported package-level name by some non-test file of its
// own package. A reference inside the name's own declaration (a
// recursive call, a self-referential type) does not count. The match
// is by name alone, so it is conservative: a method shares its name
// with every field and method of that spelling. What only tests need
// belongs in the package's export_test.go.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ dir, key, name string }
	var decls []decl
	used := map[string]bool{}  // exported names referenced by non-test code
	local := map[string]bool{} // dir + "." + name, referenced in dir
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		scan := func(n ast.Node, self ...*ast.Ident) {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || slices.ContainsFunc(self, func(s *ast.Ident) bool { return s.Name == id.Name }) {
					return true
				}
				used[id.Name] = true
				local[dir+"."+id.Name] = true
				return true
			})
		}
		declare := func(id *ast.Ident, recv string) {
			if id.Name == "_" || id.Name == "init" || id.Name == "main" || strings.HasPrefix(dir, "benchmark") {
				return
			}
			key := dir + "." + id.Name
			if recv != "" {
				key = dir + "." + recv + "." + id.Name
			}
			decls = append(decls, decl{dir, key, id.Name})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if idx, ok := typ.(*ast.IndexExpr); ok {
						typ = idx.X
					}
					recv = typ.(*ast.Ident).Name
				}
				declare(d.Name, recv)
				scan(d, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, "")
						scan(s, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id, "")
						}
						scan(s, s.Names...)
					default:
						scan(s)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{} // the allowlist entries some declaration needs
	for _, d := range decls {
		if ast.IsExported(d.name) && used[d.name] || !ast.IsExported(d.name) && local[d.dir+"."+d.name] {
			continue
		}
		switch {
		case testOnlyAllowed[d.key] != "":
			allowed[d.key] = true
		case testOnlyAllowed[d.dir] != "":
			allowed[d.dir] = true
		case ast.IsExported(d.name):
			t.Errorf("%s is exported but no non-test code references it", d.key)
		default:
			t.Errorf("%s has no non-test reference in its package", d.key)
		}
	}
	for key := range testOnlyAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s is stale: nothing it names lacks a non-test reference", key)
		}
	}
}
