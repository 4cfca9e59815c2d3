package vclock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// wallClockFuncs are the package time functions that read, wait on, or
// schedule against the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Tick": true, "Sleep": true,
}

// TestNoWallClockUnderInternal keeps the replay contract true by
// construction: no product code under internal/ may read the wall clock or
// wait on it, so every simulated result is a function of the seed and the
// virtual clock alone. Test files are exempt.
func TestNoWallClockUnderInternal(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		timePkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg && wallClockFuncs[sel.Sel.Name] {
				t.Errorf("%s: wall-clock use time.%s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under internal/")
	}
}
