package freepart

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestEveryFuzzTargetIsFuzzed keeps the CI workflow's fuzz steps and the
// module's fuzz targets in step. It fails on a fuzz target in the module's
// test files, perfbench aside, that no `-fuzz '^Name$'` line of
// .github/workflows/ci.yml runs in its own package, and on such a line
// that names a target its package does not declare.
func TestEveryFuzzTargetIsFuzzed(t *testing.T) {
	declared := declaredFuncs(t, "Fuzz", "F")
	if len(declared) == 0 {
		t.Fatal("no fuzz target found in the module")
	}
	// A fuzz line reads `go test … -fuzz '^Name$' … ./dir`.
	line := regexp.MustCompile(`-fuzz '\^(\w+)\$'.*\s(\.\S*)\s*$`)
	fuzzed := map[string]bool{}
	for _, l := range ciLines(t) {
		if !strings.Contains(l, "-fuzz ") {
			continue
		}
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("ci.yml: cannot read the target and package of %q", strings.TrimSpace(l))
			continue
		}
		target := m[2] + " " + m[1]
		fuzzed[target] = true
		if !declared[target] {
			t.Errorf("ci.yml fuzzes %s, which no test file of %s declares", m[1], m[2])
		}
	}
	var missing []string
	for target := range declared {
		if !fuzzed[target] {
			missing = append(missing, target)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		dir, name, _ := strings.Cut(m, " ")
		t.Errorf("%s in %s is fuzzed by no -fuzz '^%s$' line of ci.yml", name, dir, name)
	}
}

// TestEveryRunStepSelectsTests fails on a `go test` line of
// .github/workflows/ci.yml whose -run pattern, other than '^$', matches no
// Test function of a package the line lists: that step would pass while
// running nothing there.
func TestEveryRunStepSelectsTests(t *testing.T) {
	tests := map[string][]string{} // package dir -> its Test functions
	for target := range declaredFuncs(t, "Test", "T") {
		dir, name, _ := strings.Cut(target, " ")
		tests[dir] = append(tests[dir], name)
	}
	run := regexp.MustCompile(`\s-run '([^']*)'`)
	steps := 0
	for _, l := range ciLines(t) {
		if !strings.Contains(l, "go test ") || !strings.Contains(l, " -run") {
			continue
		}
		m := run.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("ci.yml: cannot read the -run pattern of %q", strings.TrimSpace(l))
			continue
		}
		if m[1] == "^$" {
			continue
		}
		pattern, err := regexp.Compile(m[1])
		if err != nil {
			t.Errorf("ci.yml: -run '%s': %v", m[1], err)
			continue
		}
		steps++
		var pkgs []string
		for _, f := range strings.Fields(l) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("ci.yml: %q lists no package", strings.TrimSpace(l))
		}
		for _, pkg := range pkgs {
			if !slices.ContainsFunc(tests[pkg], pattern.MatchString) {
				t.Errorf("ci.yml runs -run '%s' in %s, where no Test function matches it", m[1], pkg)
			}
		}
	}
	if steps == 0 {
		t.Fatal("ci.yml has no go test line with a -run pattern to check")
	}
}

// declaredFuncs returns every function of the module's test files,
// perfbench aside, whose name starts with prefix and whose one parameter is
// a *testing.<param>, each as `./dir Name`.
func declaredFuncs(t *testing.T, prefix, param string) map[string]bool {
	t.Helper()
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "perfbench" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, prefix) && takesTesting(fn, param) {
				dir := "./" + filepath.ToSlash(filepath.Dir(path))
				declared[strings.TrimSuffix(dir, "/.")+" "+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// ciLines returns the lines of the CI workflow.
func ciLines(t *testing.T) []string {
	t.Helper()
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(ci), "\n")
}

// takesTesting reports whether fn's one parameter is a *testing.<param>.
func takesTesting(fn *ast.FuncDecl, param string) bool {
	ps := fn.Type.Params.List
	if len(ps) != 1 {
		return false
	}
	star, ok := ps[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == param
}
