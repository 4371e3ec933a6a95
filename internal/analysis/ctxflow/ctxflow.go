// Package ctxflow defines an analyzer that enforces end-to-end context
// threading: library code must not mint fresh contexts with
// context.Background() or context.TODO(). A function that wants
// cancellation must receive a context from its caller; the only way to
// drop the chain is to mint a fresh root, so the ban enforces the
// threading contract at its root cause. Without it, a Run*/pool entry
// point reached through a fresh root keeps running after the caller —
// an hwatchd job, a CLI SIGINT, a test deadline — has cancelled.
//
// Exemptions:
//   - package main (the process root legitimately creates the root
//     context) and _test.go files;
//   - justified //hwatchvet:allow ctxflow sites (e.g. a documented
//     nil-context default at an API boundary).
//
// There is no exemption for a ctx-less wrapper handing a fresh root to
// its own *Context variant: the tree keeps no such wrappers, and the
// analyzer also reports any package that declares both X and XContext
// (same receiver), so the doubled API cannot grow back.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"hwatch/internal/analysis/allowdir"
)

// DefaultScope matches every first-party package; package main is
// exempted by name, not by path.
const DefaultScope = `^hwatch(/|$)`

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "forbid context.Background()/TODO() outside package main, tests " +
		"and justified //hwatchvet:allow sites — cancellation must thread " +
		"end to end",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: usedType,
	Run:        run,
}

var scope = DefaultScope

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", DefaultScope,
		"regexp of package paths under the context-threading contract")
}

func run(pass *analysis.Pass) (any, error) {
	used := allowdir.Used{}
	re, err := regexp.Compile(scope)
	if err != nil {
		return nil, err
	}
	if !re.MatchString(pass.Pkg.Path()) || pass.Pkg.Name() == "main" {
		return used, nil
	}
	set := allowdir.Collect(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		if strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go") {
			return
		}
		call := n.(*ast.CallExpr)
		if name := freshContextCall(pass.TypesInfo, call); name != "" {
			allowdir.Report(pass, set, used, "ctxflow", call.Pos(),
				"context.%s mints a fresh root: cancellation stops here — thread the caller's context instead (add a ctx parameter)", name)
		}
	})
	reportTwins(pass, set, used)
	return used, nil
}

// reportTwins flags a function or method X declared next to XContext in
// the same package: every entry point has one form, context first.
func reportTwins(pass *analysis.Pass, set *allowdir.Set, used allowdir.Used) {
	type decl struct {
		key string
		pos token.Pos
	}
	var decls []decl
	declared := map[string]bool{}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv := types.ExprString(ast.Unparen(fd.Recv.List[0].Type))
				key = strings.TrimPrefix(recv, "*") + "." + key
			}
			declared[key] = true
			decls = append(decls, decl{key, fd.Name.Pos()})
		}
	}
	for _, d := range decls {
		if declared[d.key+"Context"] {
			allowdir.Report(pass, set, used, "ctxflow", d.pos,
				"%s is declared next to %sContext: keep one entry point, context first", d.key, d.key)
		}
	}
}

// freshContextCall returns "Background" or "TODO" when the call is
// context.Background() / context.TODO(), else "".
func freshContextCall(info *types.Info, call *ast.CallExpr) string {
	fn, ok := typeutil.Callee(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

var usedType = reflect.TypeOf(allowdir.Used{})
