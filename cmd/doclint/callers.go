package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// callerAllow names the exported identifiers of internal/ packages that
// no non-test file calls, each with what does reach it: the tests of
// other packages, or a caller the type checker cannot see. A name only
// its own package's tests read is unexported or moved into those tests
// instead, and one that only its own unit test reads is deleted.
var callerAllow = map[string]string{
	"internal/core.ShardFault.Unwrap":           "errors.Is and errors.As, through an interface the errors package declares inside a function",
	"internal/core.Vault.PersistentBytes":       "tests of gnnvault, registry and serve",
	"internal/core.Workspace.ShardEnclaveBytes": "tests of registry and serve",
	"internal/enclave.Enclave.Lost":             "tests of core and registry",
	"internal/graph.Graph.Equal":                "tests of datasets and substitute",
	"internal/graph.NormAdjacency.Dense":        "tests of nn and subgraph",
	"internal/graph.Partition.Shards":           "tests of exec",
	"internal/mat.Identity":                     "tests of graph",
	"internal/mat.Matrix.Add":                   "tests of graph",
	"internal/mat.Matrix.Equal":                 "tests of core, datasets, exec, graph, metrics and nn",
	"internal/mat.Matrix.EqualApprox":           "tests of core, graph and nn",
	"internal/mat.Matrix.T":                     "tests of graph",
	"internal/nn.ZeroGrad":                      "tests of core",
	"internal/obs.Ring.Len":                     "tests of core",
	"internal/privharness.HTTPClient":           "tests of privharness: the HTTP half of the in-process == HTTP harness",
}

// builds are the builds CI compiles: a use under any of them counts. The
// !linux one selects the enclave's wall-clock fallback, which cannot be
// checked in one package with its linux twin.
var builds = func() []build.Context {
	purego, other := build.Default, build.Default
	purego.BuildTags = []string{"purego"}
	other.GOOS, other.GOARCH = "darwin", "arm64"
	return []build.Context{build.Default, purego, other}
}()

// modLine matches go.mod's module directive (group 1 the path).
var modLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// lintCallers reports every exported top-level identifier, and every
// exported method of an exported type, of an internal/ package among
// dirs (relative to the module root, the current directory) that no
// non-test file of the module's packages uses, unless allow names it; it
// returns the problem count. A method counts as used when its receiver
// type implements an interface that has the method; the receivers of a
// type's own methods do not count as uses of the type.
func lintCallers(dirs []string, allow map[string]string) int {
	data, err := os.ReadFile("go.mod")
	m := modLine.FindSubmatch(data)
	if err != nil || m == nil {
		fmt.Fprintf(os.Stderr, "doclint: no module path in ./go.mod (%v)\n", err)
		return 1
	}
	c := &callers{mod: string(m[1]), fset: token.NewFileSet(), files: map[string]*ast.File{},
		decls: map[string]token.Position{}, used: map[string]bool{}}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	for _, c.ctx = range builds {
		c.pkgs, c.ifaces = map[string]*types.Package{}, nil
		for _, dir := range dirs {
			if _, err := c.Import(path.Join(c.mod, filepath.ToSlash(dir))); err != nil {
				fmt.Fprintf(os.Stderr, "doclint: %s (GOOS=%s tags=%v): %v\n", dir, c.ctx.GOOS, c.ctx.BuildTags, err)
				return 1
			}
		}
		c.ifaces = append(c.ifaces, namedInterfaces(c.pkgs)...)
		for p, pkg := range c.pkgs {
			if strings.Contains(p+"/", "/internal/") {
				c.declare(pkg)
			}
		}
	}
	var problems []string
	for k, pos := range c.decls {
		if !c.used[k] && allow[k] == "" {
			problems = append(problems, fmt.Sprintf("%s: exported %s has no non-test caller", pos, k))
		}
	}
	sort.Strings(problems)
	fmt.Fprint(os.Stderr, strings.Join(append(problems, ""), "\n"))
	return len(problems)
}

// callers type-checks the module's packages under one build at a time,
// importing module packages through itself and the standard library from
// source, and gathers the exported declarations and the uses of every
// build by key.
type callers struct {
	mod    string
	ctx    build.Context
	fset   *token.FileSet
	files  map[string]*ast.File // parsed once, shared by every build
	std    types.Importer
	pkgs   map[string]*types.Package // this build's module packages
	ifaces []*types.Interface        // the interface types this build's files spell out
	decls  map[string]token.Position
	used   map[string]bool
}

// Import implements types.Importer: it type-checks a module package's
// non-test files under the current build, once, and records what they
// use.
func (c *callers) Import(importPath string) (*types.Package, error) {
	if importPath != c.mod && !strings.HasPrefix(importPath, c.mod+"/") {
		return c.std.Import(importPath)
	}
	if pkg, ok := c.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir := "." + strings.TrimPrefix(importPath, c.mod)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := filepath.Join(dir, e.Name())
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := c.ctx.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		if c.files[name] == nil {
			if c.files[name], err = parser.ParseFile(c.fset, name, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
		}
		files = append(files, c.files[name])
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: c}).Check(importPath, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[importPath] = pkg
	recv := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if k := c.key(obj); k != "" && !recv[id] {
			c.used[k] = true
		}
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			c.ifaces = append(c.ifaces, it)
		}
	}
	return pkg, nil
}

// declare records pkg's exported top-level objects and the exported
// methods of its exported named types, and marks used each such method
// whose receiver type implements an interface of the current build that
// has it.
func (c *callers) declare(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		objs := []types.Object{obj}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						objs = append(objs, m)
					}
				}
			}
		}
		for _, o := range objs {
			k := c.key(o)
			if _, ok := c.decls[k]; !ok {
				c.decls[k] = c.fset.Position(o.Pos())
			}
			if fn, ok := o.(*types.Func); ok && fn != obj && !c.used[k] && implemented(fn, c.ifaces) {
				c.used[k] = true
			}
		}
	}
}

// implemented reports whether method fn's receiver type implements one of
// ifaces that has a method of fn's name.
func implemented(fn *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(fn.Type().(*types.Signature).Recv().Type(), it) {
				return true
			}
		}
	}
	return false
}

// namedInterfaces returns error and the named interfaces of pkgs and of
// every package they import, the standard library's included.
func namedInterfaces(pkgs map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return out
}

// key names a package-level object or a named type's method of the
// module as "dir.Name" or "dir.Type.Method", dir relative to the module
// root, and anything else "".
func (c *callers) key(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil || (pkg.Path() != c.mod && !strings.HasPrefix(pkg.Path(), c.mod+"/")) {
		return ""
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		t := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // an interface's method
		}
		name = named.Obj().Name() + "." + name
	} else if obj.Parent() != pkg.Scope() {
		return "" // a local, a field or a parameter
	}
	return strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), c.mod), "/") + "." + name
}
