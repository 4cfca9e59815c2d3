package freepart

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Why a function that no binary links stays in the program. Each kept
// function below names one of these.
const (
	// paperClaim: a claim of the paper that only a test shows; no
	// cmd/experiments run drives it yet.
	paperClaim = "paper claim only tests show"
	// awaitingReader: an API whose first binary caller is planned.
	awaitingReader = "waiting for its first reader"
	// reference: code another package's tests compare the runtime
	// against. An export_test.go serves only its own package's tests.
	reference = "reference for other packages' tests"
	// accessor: a query other packages' tests read.
	accessor = "accessor other packages' tests read"
	// constructor: a constructor tests make their objects with, or the
	// body of one.
	constructor = "constructor tests make objects with"
)

// keptUnlinked lists every non-test function that links into no binary on
// purpose, keyed as `pkg.F`, `pkg.T.M` or `pkg.(*T).M`, where pkg is the
// last element of the import path.
var keptUnlinked = map[string]string{
	// §6 multi-threading: an agent's threads share its address space.
	"core.NewThreadGroup":        paperClaim,
	"core.(*ThreadGroup).Thread": paperClaim,
	"core.(*ThreadGroup).Len":    paperClaim,
	"core.(*ThreadGroup).Close":  paperClaim,
	"core.(*Runtime).adoptHost":  paperClaim,
	"kernel.(*Kernel).Exit":      paperClaim,
	// §7 protection keys for the host's sensitive objects.
	"core.(*Runtime).SealObject": paperClaim,
	// §A.7 StegoNet: the victims and the fork bomb a seccomp filter stops.
	"apps.NewMedicalApp":         paperClaim,
	"apps.(*MedicalApp).Analyze": paperClaim,
	"apps.NewInvoiceApp":         paperClaim,
	"apps.(*InvoiceApp).Process": paperClaim,
	"attack.ForkBomb":            paperClaim,
	// §4.2.2 type-neutral API detection from traces.
	"analysis.(*Analyzer).DetectNeutral": paperClaim,

	// Releasing intermediates (ROADMAP item 2).
	"core.(*Runtime).Release": awaitingReader,
	"core.(*Direct).Release":  awaitingReader,
	// The explain view over the executor's event log (ROADMAP item 1).
	"core.(*Executor).Events":           awaitingReader,
	"core.(*Executor).EventsFor":        awaitingReader,
	"core.(*Executor).EventsAndMetrics": awaitingReader,
	"core.ErrClass":                     awaitingReader,

	// The replay comparisons of the partition soak and of apps.
	"partition.(*Meta).Encode":            reference,
	"partition.(*PlacementMemory).Encode": reference,
	// The partition soak and its zero-cost guard serve by key.
	"apps.(*DetectionServer).ServeSeqKeyed": reference,
	"apps.PartitionConfig.enabled":          reference,
	// The executor's built-in placement the autoscale guards install.
	"sched.RoundRobin.Place":         reference,
	"sched.RoundRobin.MigrateTarget": reference,
	// FuzzModelForward's reference decoder; workload's tests read it too.
	"simtorch.DecodeModel": reference,
	// The decode-first reads FuzzModelForward and FuzzTensorKernels hold
	// the kernels' views to.
	"object.(*Tensor).Values": reference,

	"core.(*Runtime).Agents":        accessor,
	"kernel.(*Process).Denials":     accessor,
	"kernel.(*Process).Restarts":    accessor,
	"kernel.(*Camera).Pending":      accessor,
	"mem.(*AddressSpace).Regions":   accessor,
	"mem.(*AddressSpace).ID":        accessor,
	"mem.(*AddressSpace).SetLimit":  accessor,
	"mem.(*AddressSpace).StoreByte": accessor,
	"object.(*Mat).At":              accessor,
	"object.(*Mat).Set":             accessor,
	"object.(*Mat).offset":          accessor,

	// The framework's and simcv's tests make blank mats with Ctx.NewMat;
	// object.NewMat is its body, and object's own tests call it too.
	"framework.(*Ctx).NewMat": constructor,
	"object.NewMat":           constructor,
}

// TestEveryFunctionLinks keeps code that no binary runs out of the
// program. It builds every main package and perfbench with inlining off,
// so each called function keeps its own symbol, lists their symbols, and
// fails on any function declared in non-test Go (perfbench aside) that
// links into none of them and is not in keptUnlinked. A generic function
// links when any of its instantiations does. It also fails on a kept entry
// that now links or no longer exists, so the table cannot go stale.
func TestEveryFunctionLinks(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the scan builds the binaries: %v", err)
	}
	bin := t.TempDir()
	build := func(dir string, args ...string) {
		cmd := exec.Command(goTool, append([]string{"build", "-gcflags=all=-l", "-o"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v in %s: %v\n%s", args, dir, err, out)
		}
	}
	build(".", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	build("perfbench", filepath.Join(bin, "perfbench"), ".")

	const module = "freepart.dev/freepart/"
	// linked holds each text symbol of this module that some binary links,
	// with the module path and any type arguments cut out, so
	// `…/internal/apps.fanOut[go.shape.int]` reads `internal/apps.fanOut`.
	// A main package's symbols read `main.F` in its own binary; they are
	// stored as `binary/main.F`.
	linked := map[string]bool{}
	typeArgs := regexp.MustCompile(`\[[^\[\]]*\]`)
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		out, err := exec.Command(goTool, "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := f[2]
			switch {
			case strings.HasPrefix(name, module):
				name = name[len(module):]
			case strings.HasPrefix(name, "main."):
				name = e.Name() + "/" + name
			default:
				continue
			}
			for typeArgs.MatchString(name) {
				name = typeArgs.ReplaceAllString(name, "")
			}
			linked[name] = true
		}
	}
	if len(linked) == 0 {
		t.Fatal("no symbol of this module found in the binaries")
	}

	// declared maps each function declared in non-test Go, keyed as in
	// keptUnlinked, to its position and to the symbol it links as. A main
	// package is keyed `binary/main`, its binary named after its directory.
	type function struct{ pos, symbol string }
	declared := map[string]function{}
	pkgDir := map[string]string{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "perfbench" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
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
		pkg, symPkg := filepath.Base(dir), dir
		if f.Name.Name == "main" {
			pkg = filepath.Base(dir) + "/main"
			symPkg = pkg
		}
		if other, ok := pkgDir[pkg]; ok && other != dir {
			t.Fatalf("packages %s and %s share the key %q", other, dir, pkg)
		}
		pkgDir[pkg] = dir
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			declared[pkg+"."+name] = function{fset.Position(fn.Pos()).String(), symPkg + "." + name}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no function declared in non-test Go")
	}

	var unlinked []string
	for key, fn := range declared {
		if !linked[fn.symbol] && keptUnlinked[key] == "" {
			unlinked = append(unlinked, fn.pos+": "+key)
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("%s links into no binary: delete it, or keep it in keptUnlinked with its reason", u)
	}
	if len(unlinked) > 0 {
		t.Logf("%d functions link into no binary", len(unlinked))
	}
	for key := range keptUnlinked {
		switch fn, ok := declared[key]; {
		case !ok:
			t.Errorf("keptUnlinked lists %s, which is not declared in non-test Go", key)
		case linked[fn.symbol]:
			t.Errorf("%s: %s now links into a binary: drop it from keptUnlinked", fn.pos, key)
		}
	}
}

// recvName renders a method receiver the way symbols spell it: `T` or
// `(*T)`, with any type parameters dropped.
func recvName(expr ast.Expr) string {
	ptr := false
	if star, ok := expr.(*ast.StarExpr); ok {
		ptr, expr = true, star.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	name := expr.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")"
	}
	return name
}
