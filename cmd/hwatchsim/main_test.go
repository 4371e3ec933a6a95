package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFlagsReadByTargetKind pins which flags each kind of target reads: a
// flag no selected target reads fails the command, so a row target's
// -check cannot arm a checker whose findings it has no way to print.
func TestFlagsReadByTargetKind(t *testing.T) {
	o := options{long: 5, short: 5, seed: 1}
	for _, c := range []struct {
		target, flag string
		want         bool
	}{
		{"fig8", "check", true},
		{"rung/ladder/1x", "check", true},
		{"scheme:hwatch", "check", true},
		{"spec:../../examples/server_submit.json", "check", true},
		{"ablation/k", "check", false},
		{"study/coflow", "check", false},
		{"ablation/k", "digest", false},
		{"study/incast", "out", false},
		{"ablation/k", "scale", true},
		{"study/coflow", "schemes", true},
		{"fig8", "faults", false},
		{"scheme:hwatch", "faults", true},
		{"scheme:hwatch", "seed", true},
		{"spec:../../examples/server_submit.json", "long", false},
	} {
		ts, err := resolve(c.target, &o)
		if err != nil {
			t.Fatalf("%s: %v", c.target, err)
		}
		for _, tg := range ts {
			if got := reads(tg, c.flag); got != c.want {
				t.Errorf("%s reads -%s: %v, want %v", c.target, c.flag, got, c.want)
			}
		}
	}
}

// TestDocsNameRealCommandsAndFlags reads the documents that tell a reader
// how to build and run the repository: every cmd/<x> they name must exist,
// every -flag that follows hwatchsim on a command line must be one the
// command defines, and every hwatch.X they name must be declared in
// hwatch.go. A renamed or deleted command, flag or library name fails
// here, not in a reader's shell or compiler. The other way round, every
// name hwatch.go exports must have a caller outside the facade and its
// test, and README must name it: the facade grows only with a user.
func TestDocsNameRealCommandsAndFlags(t *testing.T) {
	defined := map[string]bool{}
	newFlags(&options{}).VisitAll(func(f *flag.Flag) { defined[f.Name] = true })
	cmdPath := regexp.MustCompile("(?:\\./|`|\\s|\\()cmd/(\\w+)")
	flagName := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	symbol := regexp.MustCompile(`\bhwatch\.([A-Z]\w*)`)
	exported := facadeNames(t)
	inReadme := map[string]bool{}
	docs := []string{"README.md", "DESIGN.md", "Makefile", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
	for _, doc := range docs {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		cmdline := ""
		for i, line := range strings.Split(string(raw), "\n") {
			// A shell line ending in a backslash continues on the next.
			cmdline += line
			if strings.HasSuffix(cmdline, "\\") {
				cmdline = strings.TrimSuffix(cmdline, "\\")
				continue
			}
			for _, m := range symbol.FindAllStringSubmatch(cmdline, -1) {
				if !exported[m[1]] {
					t.Errorf("%s:%d names hwatch.%s, which hwatch.go does not declare", doc, i+1, m[1])
				}
				inReadme[m[1]] = inReadme[m[1]] || doc == "README.md"
			}
			for _, m := range cmdPath.FindAllStringSubmatch(cmdline, -1) {
				if _, err := os.Stat(filepath.Join("..", m[1])); err != nil {
					t.Errorf("%s:%d names cmd/%s, which does not exist", doc, i+1, m[1])
				}
			}
			for _, rest := range strings.Split(cmdline, "hwatchsim")[1:] {
				// The command ends at a code span's end, a pipe, a comment,
				// a redirection or a list operator.
				if end := strings.IndexAny(rest, "`|#;>&)"); end >= 0 {
					rest = rest[:end]
				}
				for _, tok := range strings.Fields(rest) {
					if m := flagName.FindStringSubmatch(tok); m != nil && !defined[m[1]] {
						t.Errorf("%s:%d passes hwatchsim %s, a flag it does not define", doc, i+1, tok)
					}
				}
			}
			cmdline = ""
		}
	}
	used := facadeUses(t)
	var names []string
	for name, isExported := range exported {
		if isExported {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if !used[name] {
			t.Errorf("hwatch.go exports %s, which nothing in cmd/, examples/ or bench_test.go uses", name)
		}
		if !inReadme[name] {
			t.Errorf("hwatch.go exports %s, which README.md does not name as hwatch.%s", name, name)
		}
	}
}

// facadeUses returns the hwatch names the facade's callers use: each
// hwatch.X selector in the Go files under cmd/ and examples/, and each
// identifier of the root package's bench_test.go, which is package hwatch.
func facadeUses(t *testing.T) map[string]bool {
	used := map[string]bool{}
	root := filepath.Join("..", "..")
	parse := func(path string, inPackage bool) {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "hwatch" {
					used[n.Sel.Name] = true
				}
				// A field or method (t.Run) is no use of the package name it spells.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				used[n.Name] = used[n.Name] || inPackage
			}
			return true
		}
		ast.Inspect(file, visit)
	}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".go") {
				parse(path, false)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	parse(filepath.Join(root, "bench_test.go"), true)
	return used
}

// facadeNames returns the exported top-level names hwatch.go declares.
func facadeNames(t *testing.T) map[string]bool {
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", "hwatch.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	add := func(id *ast.Ident) { names[id.Name] = id.IsExported() }
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					add(sp.Name)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						add(id)
					}
				}
			}
		}
	}
	return names
}
