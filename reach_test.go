package leosim

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachExempt lists the declarations in non-test files under internal/, cmd/
// and the root package that production does not reach, and why each stays:
// test hooks and observers, fixtures several packages' tests share, and
// references tests hold the production code to.
// Keys are "<dir>.<Name>" or "<dir>.<Type>.<Method>"; the root package's dir
// is "leosim".
var reachExempt = map[string]string{
	"internal/telemetry.Disable":                     "test hook: turns process telemetry off",
	"internal/telemetry.Tracer.Dropped":              "observer: tests read the ring's overflow count",
	"internal/graph.Overlay.KDisjointPathsToSettled": "observer: tests count the pops of a destination's ball and of the peels it directs",
	"internal/fault.Chaos.Draws":                     "observer: chaos tests count draws",
	"internal/fault.Chaos.Fails":                     "observer: chaos tests count injected failures",
	"internal/fault.Chaos.Panics":                    "observer: chaos tests count injected panics",
	"internal/fault.Outages.ISLFailed":               "observer: tests read a realized mask's failed lasers",
	"internal/core.Sim.cachedNetworks":               "observer: tests read the sim's snapshot cache",
	"internal/topo.MustBuild":                        "fixture shared by several packages' tests",
	"internal/constellation.TestShell":               "fixture shared by several packages' tests",
	"internal/check.Report.Classes":                  "observer: tests read a report's violation classes",
	"internal/check.Report.CheckedCount":             "observer: tests read how many items a check covered",
	"internal/geo.MinRTTOverSurface":                 "reference: the physical RTT bound builder tests hold paths to",
	"internal/flow.Problem.BottleneckApprox":         "reference: DESIGN.md's max-min ablation and VerifyMaxMin's negative case",
	"internal/ground.LandFraction":                   "reference: pins the land raster's digest",
	"internal/graph.Network.SatNode":                 "names the satellites-first node layout",
	"internal/constellation.WithoutSeamISLs":         "option tests turn on to cut the seam's lasers",
	"internal/core.WithSatelliteCapacity":            "ablation: DESIGN.md §5's capacity semantics (BenchmarkAblationSatCapacity) sets it to 0",
	"internal/flow.Problem.Validate":                 "reference: the allocator tests hold allocations to the link capacities",
	"internal/geo.LatLon.Valid":                      "reference: tests hold the city dataset's coordinates to it",
}

// interfaceMethods are the names of the methods this repository declares to
// satisfy a standard-library interface (fmt, encoding/json, encoding,
// sort, container/heap, io, net/http, log/slog), which the library calls and
// no call site names.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Write": true, "WriteHeader": true,
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
}

// TestProductionReachesEveryFunction fails for any function, method,
// interface method, or package-level type, constant or variable declared in a
// non-test file under internal/, cmd/ or the root package that production
// does not reach. References are resolved with go/types, so a declaration is
// reached through what its name refers to, never through another that
// shares the name. Production is every non-test .go file in the repository,
// bench/ and examples/ included: everything outside internal/, cmd/ and the
// root names what it reaches, as do main, init and blank variables; a reached
// declaration reaches what it names. The root package is the facade and no
// seed: a facade name lives only while something outside it, or reached code
// in it, names it. A method is also reached when its receiver type is and a
// reached interface method, or an interfaceMethods entry, has its name.
// Struct fields are out of scope: encoding/json reads them by reflection.
func TestProductionReachesEveryFunction(t *testing.T) {
	g, err := loadReach(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.decls) <= 1000 {
		t.Errorf("the guard sees %d declarations; a resolver that finds none passes vacuously", len(g.decls))
	}
	for k := range reachExempt {
		if g.byKey[k] == nil {
			t.Errorf("reachExempt lists %s, which is not declared", k)
		}
	}
	live := g.live(nil)
	for k := range reachExempt {
		if d := g.byKey[k]; d != nil && live[d.obj] {
			t.Errorf("reachExempt lists %s, which production reaches", k)
		}
	}
	for _, k := range g.dead(reachExempt) {
		t.Errorf("%s: production does not reach it; delete it, or add it to reachExempt with the reason it stays", k)
	}
}

// TestReachFixture holds the resolver to a planted tree: it must report
// exactly the dead declarations there, each of which shares a name with, or
// aliases, something live, and none of the live ones a name scan or a
// careless resolver would miss.
func TestReachFixture(t *testing.T) {
	g, err := loadReach(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/shape.Circle.Name",  // implements the uncalled interface method
		"internal/shape.Shape.Name",   // interface method nothing calls
		"internal/shape.Square.Name",  // implements the uncalled interface method
		"internal/shape.Square.Scale", // shares its name with the live Circle.Scale
		"internal/shape.unusedSides",  // unused const
		"reachfixture.DeadArea",       // unused facade alias of a live function
	}
	got := g.dead(nil)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("dead declarations:\n got %q\nwant %q", got, want)
	}
}

// reachDecl is one declaration the guard covers.
type reachDecl struct {
	key  string
	obj  types.Object
	refs []types.Object  // what its declaration names
	recv *types.TypeName // a method's receiver type; nil otherwise
}

// reachGraph is a tree's declarations in scope and the references that
// production makes unconditionally.
type reachGraph struct {
	decls []*reachDecl
	byObj map[types.Object]*reachDecl
	byKey map[string]*reachDecl
	roots []types.Object
}

// live returns every object the roots and the exempt declarations reach.
func (g *reachGraph) live(exempt map[string]string) map[types.Object]bool {
	work := append([]types.Object(nil), g.roots...)
	for k := range exempt {
		if d := g.byKey[k]; d != nil {
			work = append(work, d.obj)
		}
	}
	reached := map[types.Object]bool{}
	ifaceNames := map[string]bool{} // names of reached interface methods
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if reached[obj] {
				continue
			}
			reached[obj] = true
			if isInterfaceMethod(obj) {
				ifaceNames[obj.Name()] = true
			}
			if d := g.byObj[obj]; d != nil {
				work = append(work, d.refs...)
			}
		}
		for _, d := range g.decls {
			name := d.obj.Name()
			if d.recv != nil && reached[d.recv] && !reached[d.obj] && (ifaceNames[name] || interfaceMethods[name]) {
				work = append(work, d.obj)
			}
		}
		if len(work) == 0 {
			return reached
		}
	}
}

// dead lists, sorted, the keys of the declarations that neither the roots
// nor the exempt declarations reach, exempt ones excluded.
func (g *reachGraph) dead(exempt map[string]string) []string {
	live := g.live(exempt)
	var dead []string
	for _, d := range g.decls {
		if _, ok := exempt[d.key]; !ok && !live[d.obj] {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	return dead
}

func isInterfaceMethod(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// reachStd type-checks the standard library from source, once per test
// binary.
var reachStd = sync.OnceValues(func() (*token.FileSet, types.Importer) {
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil)
})

// reachLoader type-checks the packages of one tree; it imports the tree's
// own packages from their directories and the rest from source.
type reachLoader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	files        map[string][]*ast.File // by dir, slash-separated and relative to root
	pkgs         map[string]*types.Package
	infos        map[string]*types.Info
}

// loadReach builds the reach graph of the module rooted at root; nested
// modules below it (bench/) resolve their leosim imports to the same tree.
func loadReach(root string) (*reachGraph, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset, std := reachStd()
	l := &reachLoader{
		root: root, fset: fset, std: std,
		files: map[string][]*ast.File{}, pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{},
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			l.module = strings.TrimSpace(m)
		}
	}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		l.files[dir] = append(l.files[dir], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	g := &reachGraph{byObj: map[types.Object]*reachDecl{}, byKey: map[string]*reachDecl{}}
	dirs := make([]string, 0, len(l.files))
	for dir := range l.files {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := l.check(dir); err != nil {
			return nil, err
		}
		info := l.infos[dir]
		if !(dir == "." || strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) {
			for _, f := range l.files[dir] {
				g.roots = append(g.roots, refsIn(info, f)...)
			}
			continue
		}
		keyDir := dir
		if dir == "." {
			keyDir = l.module
		}
		for _, f := range l.files[dir] {
			g.addFile(info, keyDir, f)
		}
	}
	for _, d := range g.decls {
		g.byObj[d.obj] = d
		g.byKey[d.key] = d
	}
	return g, nil
}

// Import resolves the tree's own import paths to its directories.
func (l *reachLoader) Import(p string) (*types.Package, error) {
	if p == l.module {
		return l.check(".")
	}
	if rest, ok := strings.CutPrefix(p, l.module+"/"); ok {
		return l.check(rest)
	}
	return l.std.Import(p)
}

func (l *reachLoader) check(dir string) (*types.Package, error) {
	if pkg := l.pkgs[dir]; pkg != nil {
		return pkg, nil
	}
	files := l.files[dir]
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", path.Join(l.root, dir))
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var errs []string
	conf := types.Config{Importer: l, Error: func(err error) { errs = append(errs, err.Error()) }}
	pkg, _ := conf.Check(path.Join(l.module, dir), l.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s:\n%s", dir, strings.Join(errs, "\n"))
	}
	l.pkgs[dir], l.infos[dir] = pkg, info
	return pkg, nil
}

// addFile records one in-scope file's declarations; main, init and blank
// variables are roots.
func (g *reachGraph) addFile(info *types.Info, dir string, f *ast.File) {
	add := func(key string, obj types.Object, refs []types.Object, recv *types.TypeName) {
		g.decls = append(g.decls, &reachDecl{dir + "." + key, obj, refs, recv})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			obj := info.Defs[decl.Name].(*types.Func)
			refs := refsIn(info, decl)
			if decl.Recv == nil {
				if name := decl.Name.Name; name == "init" || (name == "main" && f.Name.Name == "main") {
					g.roots = append(g.roots, refs...)
				} else {
					add(name, obj, refs, nil)
				}
				continue
			}
			recv := obj.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			tn := recv.(*types.Named).Origin().Obj()
			add(tn.Name()+"."+decl.Name.Name, obj, refs, tn)
		case *ast.GenDecl:
			// A spec with neither type nor values repeats the last one that
			// has them.
			var inherited []types.Object
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					it, ok := spec.Type.(*ast.InterfaceType)
					if !ok {
						add(spec.Name.Name, info.Defs[spec.Name], refsIn(info, spec), nil)
						continue
					}
					// An interface's methods are declarations of their own,
					// so a dead one does not keep its signature's types alive.
					var refs []types.Object
					if spec.TypeParams != nil {
						refs = refsIn(info, spec.TypeParams)
					}
					for _, m := range it.Methods.List {
						if len(m.Names) == 0 {
							refs = append(refs, refsIn(info, m.Type)...)
							continue
						}
						for _, n := range m.Names {
							add(spec.Name.Name+"."+n.Name, info.Defs[n], refsIn(info, m.Type), nil)
						}
					}
					add(spec.Name.Name, info.Defs[spec.Name], refs, nil)
				case *ast.ValueSpec:
					if spec.Type != nil || len(spec.Values) > 0 {
						inherited = refsIn(info, spec)
					}
					for i, n := range spec.Names {
						refs := inherited
						if len(spec.Values) > 1 && len(spec.Values) == len(spec.Names) {
							refs = append(refsIn(info, spec.Type), refsIn(info, spec.Values[i])...)
						}
						if n.Name == "_" {
							g.roots = append(g.roots, refs...)
						} else {
							add(n.Name, info.Defs[n], refs, nil)
						}
					}
				}
			}
		}
	}
}

// refsIn lists the package-level objects and methods the identifiers under n
// refer to, an instantiated generic as its origin.
func refsIn(info *types.Info, n ast.Node) []types.Object {
	if n == nil {
		return nil
	}
	var refs []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			refs = append(refs, obj.Origin())
		case *types.TypeName, *types.Const, *types.Var:
			refs = append(refs, obj)
		}
		return true
	})
	return refs
}
