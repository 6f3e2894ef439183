//go:build reach

package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestEveryDeclarationIsReached holds the tree to the code its programs
// use: it type-checks every non-test package of the root module and of
// bench/ and fails on a root-module declaration that no root reaches and
// that reachAllowlist does not name, or on an allowlist entry that is
// reached or gone. Roots are every declaration of a main package, the root
// package's exports, init functions and blank vars; a declaration reaches
// what its text names, and a reached type reaches its methods whose name
// some interface declares (a call through an interface names no method).
// Tests are no roots: a declaration only tests reach is dead code. Run it
// with `go test -tags reach -run TestEveryDeclarationIsReached .`.
func TestEveryDeclarationIsReached(t *testing.T) {
	start := time.Now()
	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*loaded{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	l.discover(t, ".", "repro", "bench")
	l.discover(t, "bench", "repro/bench", "")
	paths := make([]string, 0, len(l.dirs))
	for path := range l.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	g := newReachGraph()
	for _, path := range paths {
		g.add(l.pkgs[path])
	}
	seen := map[*types.Package]bool{}
	for _, p := range l.pkgs {
		g.noteInterfaces(p.types, seen)
		for _, tv := range p.info.Types { // interface literals too
			g.noteInterface(tv.Type)
		}
	}
	g.walk()

	var unreached []string
	kept := map[string]bool{}
	keptLines := 0
	for _, d := range g.decls {
		if g.reached[d.obj] || strings.HasPrefix(d.pkg, "repro/bench") {
			continue
		}
		name := d.name()
		n := l.fset.Position(d.end).Line - l.fset.Position(d.pos).Line + 1
		if _, ok := reachAllowlist[name]; ok {
			kept[name] = true
			keptLines += n
			continue
		}
		unreached = append(unreached, fmt.Sprintf("%s (%s, %d lines)", name, l.fset.Position(d.pos), n))
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("unreached: %s: delete it, or name it in reachAllowlist with its reason", u)
	}
	for name := range reachAllowlist {
		if !kept[name] {
			t.Errorf("reachAllowlist names %s, which is reached or gone: drop the entry", name)
		}
	}
	t.Logf("%d packages, %d declarations, %d unreached and allowed (%d lines), in %v",
		len(paths), len(g.decls), len(kept), keptLines, time.Since(start).Round(time.Millisecond))
}

// loaded is one type-checked package of ours.
type loaded struct {
	path  string
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// loader type-checks our packages from source, each once, and hands every
// other import to the standard library's source importer.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory, our packages
	pkgs map[string]*loaded
}

// discover files every directory under root holding Go files as package
// prefix/rel, skipping testdata, hidden directories and skip.
func (l *loader) discover(t *testing.T, root, prefix, skip string) {
	err := filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		base := e.Name()
		if dir != root && (dir == skip || base == "testdata" || strings.HasPrefix(base, ".")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(dir, 0); err == nil && len(bp.GoFiles) > 0 {
			rel, _ := filepath.Rel(root, dir)
			path := prefix
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			l.dirs[path] = dir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	dir, ours := l.dirs[path]
	if !ours {
		return l.std.Import(path)
	}
	if p := l.pkgs[path]; p != nil {
		return p.types, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &loaded{path: path, info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p.types, nil
}

// decl is one declaration: a package-level object or a method.
type decl struct {
	obj      types.Object
	pkg      string
	pos, end token.Pos // doc comment through the declaration's end
}

// name is the allowlist key: package path below the module, then
// [Receiver.]Name.
func (d *decl) name() string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(d.pkg, "repro"), "/")
	if pkg == "" {
		pkg = "repro"
	}
	name := d.obj.Name()
	if sig, ok := d.obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = recvName(sig.Recv().Type()) + "." + name
	}
	return pkg + "." + name
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// reachGraph is declarations and the declarations each one names.
type reachGraph struct {
	decls   []*decl
	edges   map[types.Object][]types.Object
	roots   []types.Object
	ifaces  map[string]bool // method names some interface declares
	reached map[types.Object]bool
}

func newReachGraph() *reachGraph {
	return &reachGraph{edges: map[types.Object][]types.Object{}, ifaces: map[string]bool{},
		reached: map[types.Object]bool{}}
}

// add files p's declarations, their edges and its roots.
func (g *reachGraph) add(p *loaded) {
	isMain := p.types.Name() == "main"
	rootPkg := p.path == "repro"
	node := func(id *ast.Ident, pos, end token.Pos, text ast.Node) {
		obj := p.info.Defs[id]
		if obj == nil { // a blank identifier defines nothing
			obj = types.NewVar(id.Pos(), p.types, id.Name, nil)
		}
		g.decls = append(g.decls, &decl{obj: obj, pkg: p.path, pos: pos, end: end})
		ast.Inspect(text, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil {
				g.edges[obj] = append(g.edges[obj], origin(p.info.Uses[id]))
			}
			return true
		})
		if isMain || id.Name == "_" || id.Name == "init" || rootPkg && id.IsExported() {
			g.roots = append(g.roots, obj)
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				node(d.Name, startOf(d.Doc, d.Pos()), d.End(), d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					pos, end := startOf(specDoc(s), s.Pos()), s.End()
					if len(d.Specs) == 1 {
						pos, end = startOf(d.Doc, d.Pos()), d.End()
					}
					switch s := s.(type) {
					case *ast.TypeSpec:
						node(s.Name, pos, end, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							node(id, pos, end, s)
						}
					}
				}
			}
		}
	}
}

func specDoc(s ast.Spec) *ast.CommentGroup {
	switch s := s.(type) {
	case *ast.TypeSpec:
		return s.Doc
	case *ast.ValueSpec:
		return s.Doc
	}
	return nil
}

func startOf(doc *ast.CommentGroup, pos token.Pos) token.Pos {
	if doc != nil {
		return doc.Pos()
	}
	return pos
}

// origin maps an instantiated generic method to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// noteInterfaces records the method names of every interface type declared
// at package level in p and in everything p imports.
func (g *reachGraph) noteInterfaces(p *types.Package, seen map[*types.Package]bool) {
	if seen[p] {
		return
	}
	seen[p] = true
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			g.noteInterface(tn.Type())
		}
	}
	for _, imp := range p.Imports() {
		g.noteInterfaces(imp, seen)
	}
}

// noteInterface records t's method names when t is an interface.
func (g *reachGraph) noteInterface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			g.ifaces[it.Method(i).Name()] = true
		}
	}
}

// walk marks everything the roots reach.
func (g *reachGraph) walk() {
	stack := append([]types.Object(nil), g.roots...)
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.reached[obj] {
			continue
		}
		g.reached[obj] = true
		stack = append(stack, g.edges[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); g.ifaces[m.Name()] {
						stack = append(stack, m)
					}
				}
			}
		}
	}
}

// reachAllowlist names the root-module declarations no program reaches
// that stay, each with its reason: test seams on live state, checkers and
// references that tests compare against, documented API, and short
// queries on kept types that tests read.
var reachAllowlist = map[string]string{
	// Test seams on live state.
	"internal/netobs.LinkTap.PerLink": "mesh and detector tests read per-link tallies",
	"internal/runtime.WithTCPMetrics": "the TCP tests count transport metrics into their own registry",
	"internal/runtime.Engine.Closed":  "the serve shutdown tests wait on the engine's close",
	// Checkers and references that tests compare against.
	"internal/check.NewIntegrityAlgorithm":         "the integrity checker the consensus and check tests run",
	"internal/check.IntegrityAlgorithm.Violations": "what the integrity checker reports",
	"internal/fd.Satisfies":                        "the detector class check the fd tests hold histories to",
	"internal/fd.CheckWeakCompleteness":            "dispatched to by Satisfies",
	"internal/fd.Class.StrongCompleteness":         "dispatched to by Satisfies",
	"internal/fd.Accuracy":                         "the accuracy property Satisfies checks",
	"internal/fd.StrongAccuracy":                   "an Accuracy value",
	"internal/fd.WeakAccuracy":                     "an Accuracy value",
	"internal/fd.EventualStrongAccuracy":           "an Accuracy value",
	"internal/fd.EventualWeakAccuracy":             "an Accuracy value",
	"internal/fd.Accuracy.String":                  "names an Accuracy in Satisfies' findings",
	"internal/fd.AccuracyOf":                       "maps a Class to its Accuracy for Satisfies",
	"internal/rounds.Run.Totals":                   "the tally the rounds property tests hold the engine's counters to",
	// Documented API.
	"internal/serve.Client.Propose":       "the client half of POST /v1/propose, behind the exported ServeClient",
	"internal/serve.Client.ProposeValues": "the client's batch propose, behind ServeClient",
	"internal/serve.Client.Instance":      "the client half of GET /v1/instance, behind ServeClient",
	"internal/serve.Client.DebugKeys":     "the client half of GET /v1/debug/keys, behind ServeClient",
	"internal/serve.Client.Update":        "README's read-modify-write CAS loop, behind ServeClient",
	// Short queries on kept types that tests read.
	"internal/model.ValueSet.Equal":        "the model tests compare value sets",
	"internal/obs.Snapshot.Counter":        "tests read one counter of a registry snapshot",
	"internal/step.Trace.InitiallyCrashed": "the step and sdd tests read a trace's initial crashes",
	"internal/tracing.Trace.Find":          "the tracing and serve tests look up a span",
	"internal/emul.Result.Latency":         "three emul tests read an emulated run's latency",
}
