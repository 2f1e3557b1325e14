package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLintIdentsResolvesAgainstTheTree: a backticked name resolves when
// some Go file declares, uses or quotes it, some assembly file defines it
// as a TEXT symbol or label, or it is a keyword, a build tag, a file, a
// mnemonic or an allowlisted name; anything else is one problem per span.
func TestLintIdentsResolvesAgainstTheTree(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", "//go:build !purego\n\npackage pkg\n\ntype T struct {\n\tN int `json:\"n_rows\"`\n}\n\nfunc (T) Run() string { return \"core.ecall_ms\" }\n")
	write("a_amd64.s", "TEXT ·kernelAVX2(SB), $0-8\nloopTop:\n\tRET\n")
	write("doc.md", "Resolved: `pkg.T`, `T.Run()`, `T.N`, `n_rows`, `core.ecall_ms`,\n"+
		"`kernelAVX2`, `loopTop`, `default`, `purego`, `VPMADDWD`, `Y5`, `a.go`,\n"+
		"`memmove`, `go test ./...`.\n"+
		"```\n`Fenced` code is not prose.\n```\n"+
		"Missing: `T.Gone`, `deletedFunc(x)`.\n")
	if got := lintIdents(dir, []string{filepath.Join(dir, "doc.md")}); got != 2 {
		t.Fatalf("lintIdents found %d problems, want 2 (T.Gone, deletedFunc)", got)
	}
}

// TestLintCallers: over a fixture module, an exported identifier of an
// internal package passes when a non-test file uses it — under any of the
// builds CI compiles, or through an interface its receiver implements —
// or when the allowlist names it, and is one problem otherwise.
func TestLintCallers(t *testing.T) {
	const lib = "internal/lib/lib.go"
	for _, c := range []struct {
		name  string
		files map[string]string
		allow map[string]string
		want  int
	}{
		{"used from a non-test file", map[string]string{
			lib:       "func Used() {}",
			"main.go": "import \"fix/internal/lib\"\n\nfunc main() { lib.Used() }",
		}, nil, 0},
		{"used only from a test file", map[string]string{
			lib:                        "func Used() {}",
			"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestUsed(t *testing.T) { Used() }\n",
			"main.go":                  "func main() {}",
		}, nil, 1},
		{"method reached only through an interface", map[string]string{
			lib:       "type Square struct{}\n\nfunc (Square) Area() float64 { return 1 }",
			"main.go": "import \"fix/internal/lib\"\n\ntype shape interface{ Area() float64 }\n\nfunc main() { var s shape = lib.Square{}; _ = s }",
		}, nil, 0},
		{"type named only by its own methods' receivers", map[string]string{
			lib:       "type Lonely struct{}\n\nfunc (*Lonely) touch() {}",
			"main.go": "func main() {}",
		}, nil, 1},
		{"use found only in a purego file", map[string]string{
			lib:         "func Tagged() {}",
			"main.go":   "func main() {}",
			"purego.go": "//go:build purego\n\npackage main\n\nimport \"fix/internal/lib\"\n\nfunc init() { lib.Tagged() }\n",
		}, nil, 0},
		{"allowlisted", map[string]string{
			lib:       "func Allowed() {}",
			"main.go": "func main() {}",
		}, map[string]string{"internal/lib.Allowed": "tests of main"}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name, body string) {
				t.Helper()
				path := filepath.Join(dir, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			write("go.mod", "module fix\n\ngo 1.24\n")
			for name, body := range c.files {
				switch name {
				case lib:
					body = "// Package lib is the fixture's internal package.\npackage lib\n\n" + body + "\n"
				case "main.go":
					body = "package main\n\n" + body + "\n"
				}
				write(name, body)
			}
			t.Chdir(dir)
			if got := lintCallers([]string{".", "internal/lib"}, c.allow); got != c.want {
				t.Fatalf("lintCallers found %d problems, want %d", got, c.want)
			}
		})
	}
}
