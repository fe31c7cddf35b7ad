package gill_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// censusTestOnly names the internal packages that exist for tests alone.
// No cmd/ binary has to reach them, and their exported API is exempt from
// the symbol rule.
var censusTestOnly = map[string]string{
	"internal/faults": "test-only package: deterministic fault injection for the chaos tests",
}

// censusAllow names the exported funcs and methods under internal/ that no
// non-test file calls but that stay, each with the reason it stays. A key
// is "<package dir>.<Func>" or "<package dir>.<Type>.<Method>".
var censusAllow = map[string]string{
	"internal/experiments.Table1Result.Cell":            "test oracle: looks up one Table 1 cell by peers, rate and filtering",
	"internal/fabric.Coordinator.Assignment":            "test oracle for the VP→collector map the coordinator pushes",
	"internal/fabric.Coordinator.SetVPs":                "seeds a test fleet's VPs in one rebalance; production adds confirmed peers one at a time with AddVP",
	"internal/index.ReplayRIB":                          "oracle for RIBAt: the index-free reconstruction the indexed answer must equal",
	"internal/orchestrator.Orchestrator.RefreshPeriods": "oracle for Due's jittered boundary",
	"internal/stream.Hub.DeliverySnapshot":              "read by the BENCH_serve report",
	"internal/stream.Hub.DroppedRateLimited":            "read by the BENCH_serve report and the rate-limit tests",
	"internal/telemetry.Logger.SetClock":                "test clock",
	"internal/telemetry.Logger.SetRateLimit":            "tests pin the suppression burst and window",
}

// censusIfaceMethods are the standard-library interface methods a type
// satisfies without any call in this module naming them.
var censusIfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Read": true, "Write": true,
	"Close": true, "Len": true, "Less": true, "Swap": true,
}

// TestCensus holds the module to two rules, so that code nothing runs
// cannot quietly regrow:
//
//  1. every package under internal/ is reached by imports from some cmd/
//     main, unless censusTestOnly names it;
//  2. every exported func or method declared in a non-test file under
//     internal/ is referenced from a non-test file somewhere in the
//     module (bench/, examples/ and scripts/ included), not counting its
//     own declaration, unless censusAllow names it with a reason.
//
// It walks the files the go command would see: dot-directories, testdata/
// and bench/out/ are skipped. A func counts as referenced when its
// package names it, or another package names it through its import. A
// method counts as referenced when any selector in the module has its
// name, or when an interface in the module or in censusIfaceMethods
// declares that name. That method check is by name: it never flags a
// live method, but a dead method that shares its name with a live one
// goes unflagged. A stale allowlist entry (its symbol is now referenced
// or gone) fails the test too.
//
// The fixture module under testdata/census has one unreached package and
// one dead exported func; the census must name both, which shows it can
// fail.
func TestCensus(t *testing.T) {
	t.Run("module", func(t *testing.T) {
		c := loadCensus(t, ".")
		unreached, dead := c.unreached(censusTestOnly), c.dead(censusTestOnly)
		for _, p := range unreached {
			t.Errorf("no cmd/ binary reaches %s: delete it, or name it in censusTestOnly with a reason", p)
		}
		for _, s := range dead {
			if censusAllow[s] == "" {
				t.Errorf("no non-test file references %s: delete it, or name it in censusAllow with a reason", s)
			}
		}
		for s := range censusAllow {
			if !slices.Contains(dead, s) {
				t.Errorf("censusAllow names %s, which is referenced or gone: drop the entry", s)
			}
		}
		for p := range censusTestOnly {
			if !slices.Contains(c.pkgs(), p) {
				t.Errorf("censusTestOnly names %s, which is gone: drop the entry", p)
			}
		}
	})
	t.Run("fixture", func(t *testing.T) {
		c := loadCensus(t, filepath.Join("testdata", "census"))
		if got, want := c.unreached(nil), []string{"internal/orphan"}; !reflect.DeepEqual(got, want) {
			t.Errorf("unreached = %v, want %v", got, want)
		}
		want := []string{"internal/live.Dead", "internal/live.T.Dead", "internal/orphan.Alone"}
		if got := c.dead(nil); !reflect.DeepEqual(got, want) {
			t.Errorf("dead = %v, want %v", got, want)
		}
	})
}

// census is the parsed non-test Go of one module.
type census struct {
	module string
	files  map[string][]*ast.File // by slash-separated dir relative to the root
}

func loadCensus(t *testing.T, root string) *census {
	t.Helper()
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	c := &census{files: map[string][]*ast.File{}}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			c.module = f[1]
		}
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "bench/out") {
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
		dir := filepath.ToSlash(filepath.Dir(rel))
		c.files[dir] = append(c.files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// pkgs lists the package dirs under internal/, sorted.
func (c *census) pkgs() []string {
	var out []string
	for dir := range c.files {
		if strings.HasPrefix(dir, "internal/") {
			out = append(out, dir)
		}
	}
	sort.Strings(out)
	return out
}

// importDir maps an import path inside the module to its dir.
func (c *census) importDir(path string) (string, bool) {
	dir, ok := strings.CutPrefix(path, c.module+"/")
	return dir, ok
}

// unreached lists the internal/ packages no cmd/ main imports, directly
// or not, other than the test-only ones.
func (c *census) unreached(testOnly map[string]string) []string {
	seen := map[string]bool{}
	var queue []string
	for dir := range c.files {
		if strings.HasPrefix(dir, "cmd/") {
			seen[dir] = true
			queue = append(queue, dir)
		}
	}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, f := range c.files[dir] {
			for _, imp := range f.Imports {
				if d, ok := c.importDir(strings.Trim(imp.Path.Value, `"`)); ok && !seen[d] {
					seen[d] = true
					queue = append(queue, d)
				}
			}
		}
	}
	var out []string
	for _, p := range c.pkgs() {
		if !seen[p] && testOnly[p] == "" {
			out = append(out, p)
		}
	}
	return out
}

// dead lists the exported funcs and methods declared under internal/
// (outside the test-only packages) that nothing references, sorted.
func (c *census) dead(testOnly map[string]string) []string {
	funcRefs := map[string]bool{} // "<dir>.<name>"
	selNames := map[string]bool{} // every selector's name
	ifaceMethods := map[string]bool{}
	decls := map[*ast.Ident]bool{}
	for _, files := range c.files {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls[fd.Name] = true
				}
			}
		}
	}
	for dir, files := range c.files {
		for _, f := range files {
			imports := map[string]string{} // local name -> dir
			for _, imp := range f.Imports {
				d, ok := c.importDir(strings.Trim(imp.Path.Value, `"`))
				if !ok || len(c.files[d]) == 0 {
					continue
				}
				name := c.files[d][0].Name.Name
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = d
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selNames[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						funcRefs[imports[x.Name]+"."+n.Sel.Name] = true
					}
				case *ast.Ident:
					if !decls[n] {
						funcRefs[dir+"."+n.Name] = true
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	var out []string
	for _, dir := range c.pkgs() {
		if testOnly[dir] != "" {
			continue
		}
		for _, f := range c.files[dir] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				name := fd.Name.Name
				if fd.Recv == nil {
					if !funcRefs[dir+"."+name] {
						out = append(out, dir+"."+name)
					}
					continue
				}
				if !selNames[name] && !ifaceMethods[name] && !censusIfaceMethods[name] {
					out = append(out, dir+"."+recvName(fd.Recv.List[0].Type)+"."+name)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
