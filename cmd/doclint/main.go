// Command doclint enforces the repo's documentation bar in CI:
//
//	doclint [-md dir] [pkgdir ...]
//
// For every package directory given, it fails if the package has no
// package comment, or if any exported top-level identifier — function,
// type, var, const, or method on an exported receiver — lacks a doc
// comment (a group doc on a var/const/type block counts for its members).
// Test files are skipped; runnable Example functions are vetted by `go
// vet` in the same CI job.
//
// Over the same package directories it also fails on code no caller
// reaches: an exported top-level identifier, or an exported method of an
// exported type, of an internal/ package that no non-test file of the
// given packages uses. The packages are type-checked with go/types (the
// standard library from source) once per build CI compiles — the default
// one, -tags purego, and a !linux one — and a use under any of them
// counts. A method counts as used when its receiver type implements an
// interface that has it; a type's own method receivers are not uses of
// the type. The few names only tests reach are listed in callerAllow,
// each with the tests that need it. The fix for a finding is to delete
// the identifier, to unexport it or move it into its package's tests when
// only those read it, or, when other packages' tests need it, to give it
// an allowlist entry.
//
// With -md it additionally walks *.md files under the given directory and
// fails on relative links to files that do not exist, catching doc drift
// like renamed files still referenced from README.md or DESIGN.md.
//
// With -metrics-src it additionally extracts every gnnvault_* metric-name
// string literal from the given Go source file and fails unless each name
// appears verbatim in -metrics-doc, so the /metrics scrape surface and the
// README's metrics reference cannot drift apart.
//
// With -idents it additionally resolves every backticked identifier in
// the given markdown files — `Name`, `pkg.Name`, `Type.Method`, `Name()`
// — against the tree under the current directory: each dotted part must
// be an identifier or a string literal (struct tags included) of some Go
// file there, a TEXT symbol or label of some *.s file, a Go keyword, a
// build tag, or the name of a file or directory. All-caps spans
// (instruction mnemonics, register names) and file names are not
// identifiers and are skipped, and a short allowlist covers the names
// that are not this repo's (runtime routines, PromQL). A miss is a doc
// naming code that no longer exists.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	mdRoot := flag.String("md", "", "also check relative links in *.md files under this directory")
	metricsSrc := flag.String("metrics-src", "", "Go file whose gnnvault_* metric-name string literals must all be documented")
	metricsDoc := flag.String("metrics-doc", "README.md", "markdown file that must mention every metric name found in -metrics-src")
	idents := flag.String("idents", "", "comma-separated markdown files whose backticked identifiers must resolve in the Go and assembly sources under the current directory")
	flag.Parse()

	problems := 0
	for _, dir := range flag.Args() {
		problems += lintPackage(dir)
	}
	problems += lintCallers(flag.Args(), callerAllow)
	if *mdRoot != "" {
		problems += lintMarkdown(*mdRoot)
	}
	if *metricsSrc != "" {
		problems += lintMetrics(*metricsSrc, *metricsDoc)
	}
	if *idents != "" {
		problems += lintIdents(".", strings.Split(*idents, ","))
	}
	if problems > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", problems)
		os.Exit(1)
	}
}

// lintPackage reports every exported identifier in dir's non-test files
// that lacks a doc comment, returning the problem count.
func lintPackage(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
		return 1
	}
	problems := 0
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			fmt.Fprintf(os.Stderr, "%s: package %s has no package comment\n", dir, pkg.Name)
			problems++
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				problems += lintDecl(fset, decl)
			}
		}
	}
	return problems
}

// lintDecl checks one top-level declaration, returning the problem count.
func lintDecl(fset *token.FileSet, decl ast.Decl) int {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return 0
		}
		if d.Recv != nil && !exportedReceiver(d.Recv) {
			return 0 // method on an unexported type: internal API
		}
		complain(fset, d.Pos(), "func", d.Name.Name)
		return 1
	case *ast.GenDecl:
		if d.Doc != nil {
			return 0 // a group doc covers every member of the block
		}
		problems := 0
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil {
					complain(fset, s.Pos(), "type", s.Name.Name)
					problems++
				}
			case *ast.ValueSpec:
				if s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						complain(fset, s.Pos(), "value", name.Name)
						problems++
					}
				}
			}
		}
		return problems
	}
	return 0
}

// exportedReceiver reports whether a method's receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// complain prints one missing-doc finding with its position.
func complain(fset *token.FileSet, pos token.Pos, kind, name string) {
	fmt.Fprintf(os.Stderr, "%s: exported %s %s is missing a doc comment\n",
		fset.Position(pos), kind, name)
}

// metricName matches exposition metric-name literals: the gnnvault_*
// family written by internal/serve/metrics.go.
var metricName = regexp.MustCompile(`^gnnvault_[a-z0-9_]+$`)

// lintMetrics extracts every gnnvault_* string literal from the Go source
// file src and reports each one missing from the markdown file doc,
// returning the problem count. Finding no metric literals at all is itself
// a problem — it means the lint is pointed at the wrong file.
func lintMetrics(src, doc string) int {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", src, err)
		return 1
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if s, err := strconv.Unquote(lit.Value); err == nil && metricName.MatchString(s) {
			names[s] = true
		}
		return true
	})
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "doclint: %s: no gnnvault_* metric-name literals found\n", src)
		return 1
	}
	data, err := os.ReadFile(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", doc, err)
		return 1
	}
	text := string(data)
	var missing []string
	for name := range names {
		if !strings.Contains(text, name) {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "%s: metric %s is not documented in %s\n", src, name, doc)
	}
	return len(missing)
}

// mdLink matches markdown links and images; group 1 is the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// lintMarkdown checks every *.md under root for relative links to
// missing files, returning the problem count.
func lintMarkdown(root string) int {
	problems := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue // external or intra-document
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				fmt.Fprintf(os.Stderr, "%s: broken link %q (%s does not exist)\n",
					path, m[1], resolved)
				problems++
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: walking %s: %v\n", root, err)
		problems++
	}
	return problems
}

// notOurs are backticked names the docs may use that no source here
// declares: runtime routines a profile shows and PromQL functions.
var notOurs = map[string]bool{"memmove": true, "duffcopy": true, "histogram_quantile": true}

var (
	// docSpan matches one backticked span of a line (group 1).
	docSpan = regexp.MustCompile("`([^`]+)`")
	// docIdent matches an identifier span — dotted parts, optionally
	// called with plain arguments; group 1 is the name.
	docIdent = regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([\w., ]*\))?$`)
	// allCaps matches mnemonics and register names.
	allCaps = regexp.MustCompile(`^[A-Z0-9_]+$`)
	// fileName matches a span naming a file by its extension.
	fileName = regexp.MustCompile(`\.(go|s|h|json|md|yml|txt|sh)$`)
	// asmName matches an assembly TEXT symbol (group 1) or label (group 2).
	asmName = regexp.MustCompile(`(?m)^(?:TEXT\s+·(\w+)|(\w+):)`)
	// buildTag matches a build-constraint line (group 1 its expression).
	buildTag = regexp.MustCompile(`(?m)^//go:build (.*)$`)
)

// lintIdents resolves every backticked identifier of the markdown files
// docs against the names the tree under root defines (see the package
// comment), reporting each miss and returning the problem count.
func lintIdents(root string, docs []string) int {
	known, err := treeNames(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", root, err)
		return 1
	}
	problems := 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", doc, err)
			problems++
			continue
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			for _, m := range docSpan.FindAllStringSubmatch(line, -1) {
				name := docIdent.FindStringSubmatch(m[1])
				if name == nil || allCaps.MatchString(name[1]) || fileName.MatchString(m[1]) || known[name[1]] || notOurs[name[1]] {
					continue
				}
				for _, part := range strings.Split(name[1], ".") {
					if !known[part] {
						fmt.Fprintf(os.Stderr, "%s:%d: `%s` names nothing in the sources (%s)\n", doc, i+1, m[1], part)
						problems++
						break
					}
				}
			}
		}
	}
	return problems
}

// treeNames collects the names lintIdents resolves against: every
// identifier, string literal and struct-tag value of the Go files under
// root, the build tags they are constrained by, the TEXT symbols and
// labels of its assembly, the Go keywords, and the base name of every
// file and directory.
func treeNames(root string) (map[string]bool, error) {
	known := map[string]bool{}
	for tok := token.BREAK; tok <= token.VAR; tok++ {
		known[tok.String()] = true
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		known[d.Name()] = true
		switch filepath.Ext(path) {
		case ".s":
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range asmName.FindAllStringSubmatch(string(data), -1) {
				known[m[1]+m[2]] = true
			}
		case ".go":
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, g := range f.Comments {
				for _, c := range g.List {
					for _, m := range buildTag.FindAllStringSubmatch(c.Text, -1) {
						for _, w := range strings.FieldsFunc(m[1], func(r rune) bool { return strings.ContainsRune(" !&|()", r) }) {
							known[w] = true
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					known[n.Name] = true
				case *ast.BasicLit:
					if v, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
						known[v] = true
					}
				case *ast.Field:
					if n.Tag != nil {
						tag, _ := strconv.Unquote(n.Tag.Value)
						for _, m := range tagValue.FindAllStringSubmatch(tag, -1) {
							known[m[1]] = true
						}
					}
				}
				return true
			})
		}
		return nil
	})
	return known, err
}

// tagValue matches the name a struct-tag value gives (group 1): the part
// of key:"value" before any comma.
var tagValue = regexp.MustCompile(`\w+:"([^",]*)`)
