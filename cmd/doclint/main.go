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
// With -md it additionally walks *.md files under the given directory and
// fails on relative links to files that do not exist, catching doc drift
// like renamed files still referenced from README.md or DESIGN.md.
//
// With -metrics-src it additionally extracts every gnnvault_* metric-name
// string literal from the given Go source file and fails unless each name
// appears verbatim in -metrics-doc, so the /metrics scrape surface and the
// README's metrics reference cannot drift apart.
//
// With -flags-src it additionally extracts every flag the given Go source
// file defines as fs.<Type>("name", …) and fails unless each is a row of
// the flag table in -flags-doc (a line starting "| `-name`"), and unless
// every flag that table names is defined in the source, so the serve
// command's flags and the README's flag table cannot drift apart.
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
	flagsSrc := flag.String("flags-src", "", "Go file whose fs.<Type>(\"name\", …) flags must each have a row in the -flags-doc flag table, and vice versa")
	flagsDoc := flag.String("flags-doc", "README.md", "markdown file holding the flag table checked against -flags-src")
	flag.Parse()

	problems := 0
	for _, dir := range flag.Args() {
		problems += lintPackage(dir)
	}
	if *mdRoot != "" {
		problems += lintMarkdown(*mdRoot)
	}
	if *metricsSrc != "" {
		problems += lintMetrics(*metricsSrc, *metricsDoc)
	}
	if *flagsSrc != "" {
		problems += lintFlags(*flagsSrc, *flagsDoc)
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

// flagCell matches the first cell of a markdown flag-table row (group 1);
// cellFlag matches one `-name` inside it (group 1 is the name).
var (
	flagCell = regexp.MustCompile("(?m)^\\| (`-[^|]*)\\|")
	cellFlag = regexp.MustCompile("`-([a-z0-9-]+)`")
)

// lintFlags reports every flag the Go source file src defines as
// fs.<Type>("name", …) that no flag-table row of the markdown file doc
// names, and every name such a row gives that src does not define,
// returning the problem count. No flags on either side is itself a
// problem.
func lintFlags(src, doc string) int {
	f, err := parser.ParseFile(token.NewFileSet(), src, nil, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", src, err)
		return 1
	}
	data, err := os.ReadFile(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", doc, err)
		return 1
	}
	defined, documented := map[string]bool{}, map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, _ := call.Fun.(*ast.SelectorExpr)
		lit, _ := call.Args[0].(*ast.BasicLit)
		if sel == nil || lit == nil || lit.Kind != token.STRING {
			return true
		}
		if recv, _ := sel.X.(*ast.Ident); recv != nil && recv.Name == "fs" {
			name, _ := strconv.Unquote(lit.Value)
			defined[name] = true
		}
		return true
	})
	for _, cell := range flagCell.FindAllStringSubmatch(string(data), -1) {
		for _, m := range cellFlag.FindAllStringSubmatch(cell[1], -1) {
			documented[m[1]] = true
		}
	}
	if len(defined) == 0 || len(documented) == 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d flags defined in %s, %d in the flag table of %s\n", len(defined), src, len(documented), doc)
		return 1
	}
	var problems []string
	for name := range defined {
		if !documented[name] {
			problems = append(problems, fmt.Sprintf("%s: flag -%s has no row in the flag table of %s", src, name, doc))
		}
	}
	for name := range documented {
		if !defined[name] {
			problems = append(problems, fmt.Sprintf("%s: flag table row -%s names no flag defined in %s", doc, name, src))
		}
	}
	sort.Strings(problems)
	fmt.Fprint(os.Stderr, strings.Join(append(problems, ""), "\n"))
	return len(problems)
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
