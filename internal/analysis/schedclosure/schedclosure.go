// Package schedclosure defines an analyzer that keeps the simulator hot
// path allocation-free at the scheduling boundary: a func literal passed
// to Engine.Schedule / ScheduleArg / At / AtArg (or the reservation
// family ScheduleChildArg / ScheduleRemoteChildArg / InsertReserved) that
// captures variables allocates a fresh closure per event and aliases model
// state into the event queue. Hot-path code must pass a bound method cached at
// construction time (Port.txDoneFn style) with the payload as the explicit
// ScheduleArg argument.
//
// Capture-free literals are permitted: they compile to a static closure
// and allocate nothing.
package schedclosure

import (
	"go/ast"
	"go/types"
	"reflect"
	"regexp"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"hwatch/internal/analysis/allowdir"
)

// DefaultScope matches the per-packet / per-event hot-path packages.
const DefaultScope = `^hwatch/internal/(sim|netem|tcp|core|aqm)(/|$)`

var Analyzer = &analysis.Analyzer{
	Name: "schedclosure",
	Doc: "forbid capturing func literals at Engine.Schedule/ScheduleArg/At/AtArg " +
		"call sites in hot-path packages (per-event closure allocation + aliasing hazard)",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: reflect.TypeOf(allowdir.Used{}),
	Run:        run,
}

var scope = DefaultScope

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", DefaultScope,
		"regexp of package paths treated as hot path")
}

var schedNames = map[string]bool{
	"Schedule": true, "ScheduleArg": true, "At": true, "AtArg": true,
	"ScheduleChildArg": true, "ScheduleRemoteChildArg": true, "InsertReserved": true,
}

func run(pass *analysis.Pass) (any, error) {
	used := allowdir.Used{}
	re, err := regexp.Compile(scope)
	if err != nil {
		return nil, err
	}
	if !re.MatchString(pass.Pkg.Path()) {
		return used, nil
	}
	set := allowdir.Collect(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Local variables defined as func literals (deliver := func(){...}),
	// so passing the variable instead of the literal does not evade the
	// check.
	litVars := make(map[*types.Var]*ast.FuncLit)
	ins.Preorder([]ast.Node{(*ast.AssignStmt)(nil), (*ast.ValueSpec)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, rhs := range n.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
						litVars[v] = lit
					}
				}
			}
		case *ast.ValueSpec:
			for i, val := range n.Values {
				lit, ok := val.(*ast.FuncLit)
				if !ok || i >= len(n.Names) {
					continue
				}
				if v, ok := pass.TypesInfo.Defs[n.Names[i]].(*types.Var); ok {
					litVars[v] = lit
				}
			}
		}
	})

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		if strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go") {
			return
		}
		call := n.(*ast.CallExpr)
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || !schedNames[fn.Name()] {
			return
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || recvTypeName(sig.Recv().Type()) != "Engine" {
			return
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				// deliver := func(){...}; eng.Schedule(d, deliver) is the
				// same per-event allocation one hop removed.
				if id, isIdent := arg.(*ast.Ident); isIdent {
					if v, isVar := pass.TypesInfo.Uses[id].(*types.Var); isVar {
						lit, ok = litVars[v], litVars[v] != nil
					}
				}
				if !ok {
					continue
				}
			}
			if caps := captures(pass, lit); len(caps) > 0 {
				allowdir.Report(pass, set, used, "schedclosure", arg.Pos(),
					"func literal passed to Engine.%s captures %s: allocates a closure per event; use a cached bound method and pass the value via %s",
					fn.Name(), strings.Join(caps, ", "), argForm(fn.Name()))
			}
		}
	})
	return used, nil
}

func argForm(sched string) string {
	if strings.HasPrefix(sched, "At") {
		return "AtArg"
	}
	return "ScheduleArg"
}

// captures returns the sorted names of non-package-level variables the
// literal closes over.
func captures(pass *analysis.Pass, lit *ast.FuncLit) []string {
	seen := make(map[*types.Var]bool)
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Declared inside the literal: not a capture.
		if lit.Pos() <= v.Pos() && v.Pos() <= lit.End() {
			return true
		}
		// Package-level variables live in the data segment; closing over
		// them needs no closure cell.
		if v.Parent() == pass.Pkg.Scope() {
			return true
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	sort.Strings(names)
	return names
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
