package freepart

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	// declared holds each fuzz target as `./dir Name`.
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
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") && takesF(fn) {
				dir := "./" + filepath.ToSlash(filepath.Dir(path))
				declared[strings.TrimSuffix(dir, "/.")+" "+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no fuzz target found in the module")
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	// A fuzz line reads `go test … -fuzz '^Name$' … ./dir`.
	line := regexp.MustCompile(`-fuzz '\^(\w+)\$'.*\s(\.\S*)\s*$`)
	fuzzed := map[string]bool{}
	for _, l := range strings.Split(string(ci), "\n") {
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

// takesF reports whether fn's one parameter is a *testing.F.
func takesF(fn *ast.FuncDecl) bool {
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
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}
