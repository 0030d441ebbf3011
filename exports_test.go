package maya_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers in internal/, and the
// root package's option constructors, that no non-test code uses and
// that stay anyway, each with the reason. Everything else nothing
// calls is deleted or unexported.
var exportAllowlist = map[string]string{
	"flight.Group.Joins":        "serve's coalescing tests wait on it until every follower has attached to the leader's flight",
	"sim.Index.Bytes":           "core's allocation-budget tests count an index's retained bytes with it",
	"sim.Run":                   "the fresh-engine reference that core, faults and the root benchmarks replay against",
	"trace.Worker.Append":       "tests in several packages build their fixture workers op by op with it; the emulator records through Next",
	"maya.WithBatchConcurrency": "the batch tests bound the pool to pin cancellation and capacity-1 eviction",
}

// benchOnlyAllowlist names the exported identifiers in internal/ that
// non-test code uses only from bench/. The benchmark harness may not
// change in the change that changes what it measures, so these remain,
// each a one-line forward or a thin pool, until the harness moves onto
// the product's own entry points (sim.AcquireEngine, Pipeline.Simulate).
// CI also forbids product code from calling the pools and the oracle's
// annotate (`sim.RunPooled(`, `sim.NewEngine(`, `AcquireAnnotations(`
// and `.AnnotateInto(` may appear in non-test files only under
// internal/core, internal/sim, internal/trace and bench/). The list
// can only shrink: a product change that leaves a new name only
// bench/ uses fails. Beyond names, bench/ pins two struct fields
// (sim.Options.Participants and core.Capture.Participants, always nil
// in the product) and the obs parameter of faults.Runner, which the
// guard does not check.
var benchOnlyAllowlist = map[string]string{
	"sim.RunPooled":                     "Run on a pooled engine (enginePool): the sim.run_ms_* and fault-evaluate rungs",
	"trace.AcquireAnnotations":          "a pooled overlay (annPool): the ladder and engine rungs",
	"trace.Annotations.Release":         "returns an overlay to annPool: the ladder and engine rungs",
	"silicon.Oracle.AnnotateInto":       "trace.Annotate with the oracle: the sim.oracle_annotate_ms rung",
	"estimator.Suite.BuildEstimatePlan": "estimator.BuildPlan with the suite: the estimator.plan_build_ms rung and the replay fixture",
	"estimator.EstimatePlan.Fill":       "copies a plan into a pooled overlay: the ladder and engine rungs",
	"serve.Server.Predictor":            "the serve-mixed workload reads the server's predictor to warm it",
}

// TestInternalExportsHaveCallers type-checks the module's non-test
// packages and fails on every exported package-level func, type, var,
// const, method or interface method in internal/ that no non-test code
// uses, and on every root-package option constructor (an exported func
// returning PredictorOption, PredictOption, Option or BatchOption) no
// non-test code calls, unless it is on exportAllowlist. The root
// package, cmd/, examples/ and bench/ count as callers. A use inside
// the name's own declaration does not count. An interface method
// counts as used only when non-test code calls it through the
// interface, and a concrete method also counts when its type
// implements an interface whose method of that name is so used: any
// package-level interface of the module, or one of the standard
// interfaces in stdInterfaces, whose methods always count. A name
// only bench/ uses must be on benchOnlyAllowlist, and every name there
// must be used only by bench/.
func TestInternalExportsHaveCallers(t *testing.T) {
	uncalled, benchOnly, err := uncalledExports(".")
	if err != nil {
		t.Fatal(err)
	}
	checkAllowlist(t, "exportAllowlist", exportAllowlist, uncalled, "no non-test code uses it")
	checkAllowlist(t, "benchOnlyAllowlist", benchOnlyAllowlist, benchOnly, "only bench/ uses it")
}

// checkAllowlist fails on every name in got that allow lacks, and on
// every name in allow that got lacks or that has no reason.
func checkAllowlist(t *testing.T, list string, allow map[string]string, got []string, why string) {
	t.Helper()
	found := map[string]bool{}
	for _, name := range got {
		found[name] = true
		if _, ok := allow[name]; !ok {
			t.Errorf("%s: exported, but %s; delete or unexport it, or add it to %s with a reason", name, why, list)
		}
	}
	for name, reason := range allow {
		if !found[name] {
			t.Errorf("%s: on %s, but that no longer holds; drop it from %s", name, list, list)
		}
		if reason == "" {
			t.Errorf("%s: on %s without a reason", name, list)
		}
	}
}

// stdInterfaces are the standard-library interfaces through which the
// module's own types are called.
var stdInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"container/heap", "Interface"},
}

// loader type-checks packages from source on demand: the module's own
// packages in full, recording every use in info, and the standard
// library's without function bodies. Importing a package checks its
// imports first, so the module is checked in dependency order.
type loader struct {
	fset   *token.FileSet
	ctxt   build.Context
	root   string
	info   *types.Info
	pkgs   map[string]*types.Package
	module []*modulePackage
}

// modulePackage is one checked package of the module.
type modulePackage struct {
	pkg   *types.Package
	files []*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	own := path == "maya" || strings.HasPrefix(path, "maya/")
	dir := filepath.Join(l.ctxt.GOROOT, "src", path)
	if own {
		dir = filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, "maya"), "/"))
	} else if _, err := os.Stat(dir); err != nil {
		dir = filepath.Join(l.ctxt.GOROOT, "src", "vendor", path)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: !own}
	var info *types.Info
	if own {
		info = l.info
	}
	p, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	if own {
		l.module = append(l.module, &modulePackage{p, files})
	}
	return p, nil
}

// parseDir parses the non-test Go files of dir that build on this
// platform.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := l.ctxt.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// uncalledExports lists, sorted, the exported names in root's
// internal/ packages that no non-test code of the module uses, as
// "pkg.Name" or "pkg.Type.Method", and those that only bench/ uses.
func uncalledExports(root string) (uncalled, benchOnly []string, err error) {
	l := &loader{
		fset: token.NewFileSet(),
		ctxt: build.Default,
		root: root,
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
		pkgs: map[string]*types.Package{},
	}
	// The standard library's pure-Go files declare the same API as its
	// cgo ones, and need no cgo run to check.
	l.ctxt.CgoEnabled = false
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if src, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(src) == 0 {
			return nil
		}
		path := "maya"
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = l.Import(path)
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	// Where each package-level name is declared, so a use inside its
	// own declaration is not counted.
	type span struct{ from, to token.Pos }
	decl := map[token.Pos]span{}
	var ifaces []*types.Interface
	for _, p := range l.module {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decl[d.Name.Pos()] = span{d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decl[s.Name.Pos()] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decl[n.Pos()] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	// The standard interfaces' methods count as used: the standard
	// library calls them, and its uses are not recorded.
	// product holds the uses outside bench/.
	used, product := map[types.Object]bool{}, map[types.Object]bool{}
	for _, s := range stdInterfaces {
		scope := types.Universe
		if s.pkg != "" {
			p, err := l.Import(s.pkg)
			if err != nil {
				return nil, nil, err
			}
			scope = p.Scope()
		}
		it := scope.Lookup(s.name).Type().Underlying().(*types.Interface)
		ifaces = append(ifaces, it)
		for i := 0; i < it.NumMethods(); i++ {
			used[it.Method(i)], product[it.Method(i)] = true, true
		}
	}
	bench := filepath.Join(root, "bench") + string(filepath.Separator)

	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if s, ok := decl[obj.Pos()]; ok && id.Pos() >= s.from && id.Pos() < s.to {
			continue
		}
		used[obj] = true
		if !strings.HasPrefix(l.fset.File(id.Pos()).Name(), bench) {
			product[obj] = true
		}
	}
	uncalled = unusedNames(l.module, used, ifaces)
	all := map[string]bool{}
	for _, name := range uncalled {
		all[name] = true
	}
	for _, name := range unusedNames(l.module, product, ifaces) {
		if !all[name] {
			benchOnly = append(benchOnly, name)
		}
	}
	return uncalled, benchOnly, nil
}

// unusedNames lists, sorted, the exported names of the module's
// internal/ packages and the root package's option constructors that
// used does not hold.
func unusedNames(module []*modulePackage, used map[types.Object]bool, ifaces []*types.Interface) []string {
	var out []string
	for _, p := range module {
		if p.pkg.Path() == "maya" {
			out = append(out, uncalledOptions(p.pkg, used)...)
			continue
		}
		short, ok := strings.CutPrefix(p.pkg.Path(), "maya/internal/")
		if !ok {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				out = append(out, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() && !used[m] {
						out = append(out, short+"."+name+"."+m.Name())
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !viaInterface(named, m.Name(), ifaces, used) {
					out = append(out, short+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// optionTypes are the root package's option interfaces.
var optionTypes = map[string]bool{"PredictorOption": true, "PredictOption": true, "Option": true, "BatchOption": true}

// uncalledOptions lists, as "maya.Name", the root package's exported
// funcs that return one of optionTypes and that no non-test code
// calls.
func uncalledOptions(pkg *types.Package, used map[types.Object]bool) []string {
	var out []string
	for _, name := range pkg.Scope().Names() {
		fn, ok := pkg.Scope().Lookup(name).(*types.Func)
		if !ok || !fn.Exported() || used[fn] {
			continue
		}
		res := fn.Type().(*types.Signature).Results()
		if res.Len() != 1 {
			continue
		}
		if named, ok := res.At(0).Type().(*types.Named); ok && named.Obj().Pkg() == pkg && optionTypes[named.Obj().Name()] {
			out = append(out, "maya."+name)
		}
	}
	return out
}

// viaInterface reports whether *T implements an interface whose used
// method called name a call may reach T's through.
func viaInterface(t *types.Named, name string, ifaces []*types.Interface, used map[types.Object]bool) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if m := it.Method(i); m.Name() == name && used[m] && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}
