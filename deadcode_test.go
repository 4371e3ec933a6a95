//go:build deadcode

package hwatch

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reachability gate (make deadcode): every function declared in the
// default build of internal/... must be linked into at least one main
// package of the module, or be named in deadcode.allow with a reason.
// Reachability is the union of the linker's dependency edges
// (-ldflags=-dumpdep) over every main, built with inlining off so an
// inlined callee still shows as a call.

const internalPrefix = "hwatch/internal/"

func TestDeadcode(t *testing.T) {
	reach := reachable(t)
	decls := declared(t)
	allow := readAllow(t, "deadcode.allow")

	used := make(map[string]bool)
	var dead []string
	for _, d := range decls {
		if reach[d.name] || (d.valueRecv != "" && reach[d.valueRecv]) {
			continue
		}
		short := strings.TrimPrefix(d.name, internalPrefix)
		if e := matchAllow(allow, short); e != "" {
			used[e] = true
			continue
		}
		dead = append(dead, fmt.Sprintf("%s (%s)", short, d.pos))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("unreachable from every main: %s", d)
	}
	for _, e := range allow.order {
		if !used[e] {
			t.Errorf("deadcode.allow:%d: %q names no unreachable function", allow.line[e], e)
		}
	}
	if len(dead) > 0 {
		t.Log("delete each function above, or give it a caller, or add it to deadcode.allow with a reason")
	}
}

// reachable links every main package of the module and returns the
// internal symbols the linker kept, with instantiation brackets and
// method-value suffixes stripped so they read like source names.
func reachable(t *testing.T) map[string]bool {
	mains := strings.Fields(goCmd(t, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
	if len(mains) == 0 {
		t.Fatal("go list found no main package")
	}
	args := append([]string{"build", "-o", t.TempDir(), "-gcflags=all=-l", "-ldflags=-dumpdep"}, mains...)
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build: %v\n%s", err, tail(out.String()))
	}
	reach := make(map[string]bool)
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, sym := range []string{from, to} {
			if strings.HasPrefix(sym, internalPrefix) {
				reach[strings.TrimSuffix(stripBrackets(sym), "-fm")] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(reach) == 0 {
		t.Fatal("the linker reported no internal symbol; did -dumpdep change format?")
	}
	return reach
}

// stripBrackets drops every [...] group: Map[go.shape.int] → Map,
// (*List[go.shape.int]).Push → (*List).Push.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type decl struct {
	name      string // linker form: pkg.F, pkg.(*T).M or pkg.T.M
	valueRecv string // pkg.(*T).M for a value-receiver method, which the linker may keep only as its pointer wrapper
	pos       string
}

// declared parses the default-build Go files of internal/... (no test
// files, no build-tagged variants) and lists every named function.
func declared(t *testing.T) []decl {
	var decls []decl
	fset := token.NewFileSet()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	listing := goCmd(t, "list", "-f", `{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}`, "./internal/...")
	for _, line := range strings.Split(strings.TrimSpace(listing), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		pkg, dir := f[0], f[1]
		for _, name := range f[2:] {
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				pos := fset.Position(fn.Pos())
				rel, _ := filepath.Rel(wd, pos.Filename)
				dc := decl{name: pkg + "." + fn.Name.Name, pos: fmt.Sprintf("%s:%d", rel, pos.Line)}
				if fn.Recv != nil {
					typ, ptr := recvType(fn.Recv.List[0].Type)
					if ptr {
						dc.name = pkg + ".(*" + typ + ")." + fn.Name.Name
					} else {
						dc.name = pkg + "." + typ + "." + fn.Name.Name
						dc.valueRecv = pkg + ".(*" + typ + ")." + fn.Name.Name
					}
				}
				decls = append(decls, dc)
			}
		}
	}
	return decls
}

// recvType names a receiver's base type, dropping type parameters.
func recvType(e ast.Expr) (name string, ptr bool) {
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name, ptr
}

// allowList is deadcode.allow: one "symbol  reason" per line, the symbol
// in linker form without the hwatch/internal/ prefix, or "pkg.*" for a
// whole package. Blank lines and #-comments are skipped.
type allowList struct {
	order []string
	line  map[string]int
}

func readAllow(t *testing.T, path string) allowList {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a := allowList{line: make(map[string]int)}
	for i, l := range strings.Split(string(data), "\n") {
		l = strings.TrimSpace(l)
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(l, " ")
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("%s:%d: %q gives no reason", path, i+1, sym)
		case a.line[sym] != 0:
			t.Errorf("%s:%d: %q repeats line %d", path, i+1, sym, a.line[sym])
		default:
			a.order = append(a.order, sym)
			a.line[sym] = i + 1
		}
	}
	return a
}

// matchAllow returns the allow entry covering sym, or "".
func matchAllow(a allowList, sym string) string {
	if a.line[sym] != 0 {
		return sym
	}
	for _, e := range a.order {
		if pkg, ok := strings.CutSuffix(e, ".*"); ok && strings.HasPrefix(sym, pkg+".") &&
			!strings.Contains(sym[len(pkg)+1:], "/") {
			return e
		}
	}
	return ""
}

func goCmd(t *testing.T, args ...string) string {
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return string(out)
}

func tail(s string) string {
	if len(s) > 4000 {
		return "…" + s[len(s)-4000:]
	}
	return s
}
