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
