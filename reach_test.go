package leosim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachExempt lists the functions and methods declared in non-test files
// under internal/ and cmd/ that production does not reach, and why each
// stays: test hooks and observers, fixtures several packages' tests share,
// and references tests hold the production code to.
// Keys are "<dir>.<Name>" or "<dir>.<Recv>.<Name>".
var reachExempt = map[string]string{
	"internal/telemetry.Disable":                 "test hook: turns the default registry off",
	"internal/telemetry.Registry.StageHistogram": "observer: tests read one stage's histogram",
	"internal/telemetry.Tracer.Dropped":          "observer: tests read the ring's overflow count",
	"internal/graph.SearchState.Settled":         "observer: tests count a search's pops",
	"internal/fault.Chaos.Draws":                 "observer: chaos tests count draws",
	"internal/fault.Chaos.Fails":                 "observer: chaos tests count injected failures",
	"internal/fault.Chaos.Panics":                "observer: chaos tests count injected panics",
	"internal/fault.Outages.ISLFailed":           "observer: tests read a realized mask's failed lasers",
	"internal/core.Sim.cachedNetworks":           "observer: tests read the sim's snapshot cache",
	"internal/topo.MustBuild":                    "fixture shared by several packages' tests",
	"internal/check.RandomScenario":              "fixture shared by several packages' tests",
	"internal/constellation.TestShell":           "fixture shared by several packages' tests",
	"internal/check.Report.Classes":              "observer: tests read a report's violation classes",
	"internal/check.Report.CheckedCount":         "observer: tests read how many items a check covered",
	"internal/geo.MinRTTOverSurface":             "reference: the physical RTT bound builder tests hold paths to",
	"internal/flow.Problem.BottleneckApprox":     "reference: DESIGN.md's max-min ablation and VerifyMaxMin's negative case",
	"internal/orbit.ElementsFromRV":              "reference: the SGP4 check's inverse",
	"internal/ground.LandFraction":               "reference: pins the land raster's digest",
	"internal/graph.Network.SatNode":             "names the satellites-first node layout",
	"internal/constellation.WithoutSeamISLs":     "option tests turn on to cut the seam's lasers",
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

// TestProductionReachesEveryFunction fails for any function or method
// declared in a non-test file under internal/ or cmd/ that production does
// not reach. Production is every non-test .go file in the repository,
// bench/ and examples/ included: what lies outside a function body in
// internal/ and cmd/, and everything elsewhere, names what it reaches; a
// function those names reach reaches what its own body names, and so on.
// Names are matched as identifiers, not resolved, so the scan can miss dead
// code that shares a name with live code but never flags code production
// names.
func TestProductionReachesEveryFunction(t *testing.T) {
	type decl struct {
		key, name string
		names     []string // identifiers its body names
	}
	var decls []decl
	var roots []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		scoped := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !scoped || fd.Name.Name == "main" || fd.Name.Name == "init" ||
				(fd.Recv != nil && interfaceMethods[fd.Name.Name]) {
				roots = append(roots, identNames(dd)...)
				continue
			}
			key := dir + "." + fd.Name.Name
			if fd.Recv != nil {
				key = dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, identNames(fd)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]int{}
	for i, d := range decls {
		byName[d.name] = append(byName[d.name], i)
	}
	// reach returns every name the seeds reach through the declarations.
	reach := func(seeds []string) map[string]bool {
		seeds = append([]string(nil), seeds...) // the walk below pops and pushes in place
		reached := map[string]bool{}
		for len(seeds) > 0 {
			name := seeds[len(seeds)-1]
			seeds = seeds[:len(seeds)-1]
			if reached[name] {
				continue
			}
			reached[name] = true
			for _, i := range byName[name] {
				seeds = append(seeds, decls[i].names...)
			}
		}
		return reached
	}
	declared := map[string]bool{}
	withExempt := roots
	for _, d := range decls {
		declared[d.key] = true
		if _, ok := reachExempt[d.key]; ok {
			withExempt = append(withExempt, d.names...)
		}
	}
	live := reach(roots)
	for k := range reachExempt {
		if !declared[k] {
			t.Errorf("reachExempt lists %s, which is not declared", k)
		} else if live[k[strings.LastIndex(k, ".")+1:]] {
			t.Errorf("reachExempt lists %s, which production reaches", k)
		}
	}
	live = reach(withExempt)
	var dead []string
	for _, d := range decls {
		if _, ok := reachExempt[d.key]; !ok && !live[d.name] {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s: production does not reach it; delete it, or add it to reachExempt with the reason it stays", k)
	}
}

// identNames lists the identifiers under n in source order.
func identNames(n ast.Node) []string {
	var names []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			names = append(names, id.Name)
		}
		return true
	})
	return names
}

func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
