// Package hookpure defines an analyzer that keeps the engine's
// out-of-band callbacks digest-neutral: the sim.Engine/Group poll hook
// (SetPoll), Group barrier callbacks (OnBarrier), the scenario
// Spec.Progress hook, and every scenario.Observer Finish callback run
// interleaved with (or after) the deterministic event flow, so anything
// they schedule or mutate shifts event sequence numbers and rots the
// golden digests.
//
// The contract: a hook body, and everything reachable from it through
// same-package static calls, must not call Engine/Group scheduling
// entry points (Schedule, ScheduleArg, At, AtArg, ScheduleRemoteArg, and
// the reservation family Reserve, ScheduleChildArg,
// ScheduleRemoteChildArg, InsertReserved) and must not write fields of model-package state (sim, netem, tcp,
// core, aqm types). Observer.Start is deliberately out of scope — it is
// the pre-run wiring phase where observers legitimately arm recurring
// sample events before the run begins.
//
// The reachability style is the same memoized same-package reacher as
// detrand: cross-package calls other than the recognized sinks are
// assumed pure.
package hookpure

import (
	"go/ast"
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

// DefaultScope matches the packages that wire hooks into the engine.
const DefaultScope = `^hwatch/internal/(sim|netem|tcp|core|aqm|faults|experiments|scenario|stats|harness)(/|$)`

// modelPkgs matches the packages whose state is folded into digests:
// a hook writing a field of one of their types perturbs the run.
const modelPkgs = `^hwatch/internal/(sim|netem|tcp|core|aqm)(/|$)`

var Analyzer = &analysis.Analyzer{
	Name: "hookpure",
	Doc: "poll hooks, barrier callbacks, Spec.Progress, and Observer.Finish " +
		"must be digest-neutral: no reachable Engine/Group scheduling call, " +
		"no write to model-package state",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: usedType,
	Run:        run,
}

var scope = DefaultScope

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", DefaultScope,
		"regexp of package paths under the hook-purity contract")
}

// schedNames are the Engine/Group scheduling entry points.
var schedNames = map[string]bool{
	"Schedule": true, "ScheduleArg": true, "At": true, "AtArg": true,
	"ScheduleRemoteArg": true, "Reserve": true, "ScheduleChildArg": true,
	"ScheduleRemoteChildArg": true, "InsertReserved": true,
}

var modelRE = regexp.MustCompile(modelPkgs)

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
	r := &reacher{pass: pass, decls: indexFuncDecls(pass), memo: make(map[*types.Func]string)}

	check := func(kind string, hook ast.Node) {
		body := hookBody(pass, r, hook)
		if body == nil {
			return
		}
		if why := r.bodyReaches(body); why != "" {
			allowdir.Report(pass, set, used, "hookpure", hook.Pos(),
				"%s is not digest-neutral: it can reach %s — hooks run out of band, so side effects shift event seq order and break golden digests", kind, why)
		}
	}

	nodeFilter := []ast.Node{
		(*ast.CallExpr)(nil),
		(*ast.CompositeLit)(nil),
		(*ast.AssignStmt)(nil),
		(*ast.FuncDecl)(nil),
	}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		if strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go") {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// eng.SetPoll(hook) / group.SetPoll(hook) / group.OnBarrier(hook)
			fn, ok := typeutil.Callee(pass.TypesInfo, n).(*types.Func)
			if !ok || len(n.Args) == 0 {
				return
			}
			recv := recvTypeName(fn)
			switch {
			case fn.Name() == "SetPoll" && (recv == "Engine" || recv == "Group"):
				check("poll hook", n.Args[0])
			case fn.Name() == "OnBarrier" && recv == "Group":
				check("barrier callback", n.Args[0])
			}
		case *ast.CompositeLit:
			// Spec{..., Progress: hook, ...}
			if typeName(pass.TypesInfo.TypeOf(n)) != "Spec" {
				return
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Progress" {
					check("Spec.Progress hook", kv.Value)
				}
			}
		case *ast.AssignStmt:
			// spec.Progress = hook
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Progress" || i >= len(n.Rhs) {
					continue
				}
				if typeName(pass.TypesInfo.TypeOf(sel.X)) == "Spec" {
					check("Spec.Progress hook", n.Rhs[i])
				}
			}
		case *ast.FuncDecl:
			// Observer.Finish implementations (Start is pre-run wiring and
			// may schedule).
			if n.Name.Name != "Finish" || n.Recv == nil || n.Body == nil {
				return
			}
			if !implementsObserver(pass, n) {
				return
			}
			if why := r.bodyReaches(n.Body); why != "" {
				allowdir.Report(pass, set, used, "hookpure", n.Pos(),
					"Observer.Finish is not digest-neutral: it can reach %s — Finish runs after the measured window and must only read", why)
			}
		}
	})
	return used, nil
}

// hookBody resolves a hook argument to the body to analyze: a function
// literal inline, or the declaration of a same-package named function.
func hookBody(pass *analysis.Pass, r *reacher, arg ast.Node) ast.Node {
	switch arg := arg.(type) {
	case *ast.FuncLit:
		return arg.Body
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[arg].(*types.Func); ok {
			if decl := r.decls[fn]; decl != nil && decl.Body != nil {
				return decl.Body
			}
		}
	case *ast.ParenExpr:
		return hookBody(pass, r, arg.X)
	}
	return nil
}

// implementsObserver reports whether the method's receiver type
// implements a same-package interface named Observer that includes a
// Finish method — the scenario.Observer contract shape.
func implementsObserver(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	obj := pass.Pkg.Scope().Lookup("Observer")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	hasFinish := false
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "Finish" {
			hasFinish = true
		}
	}
	if !hasFinish {
		return false
	}
	if len(decl.Recv.List) == 0 {
		return false
	}
	rt := pass.TypesInfo.TypeOf(decl.Recv.List[0].Type)
	if rt == nil {
		return false
	}
	return types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface)
}

// reacher answers "can this hook body, directly or through same-package
// calls, schedule an event or write model state?" with memoization.
type reacher struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*types.Func]string // "" = does not reach / in progress
}

func indexFuncDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					m[obj] = fd
				}
			}
		}
	}
	return m
}

// bodyReaches returns a description of the first impure sink reachable
// from body, or "".
func (r *reacher) bodyReaches(body ast.Node) (why string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if w := r.callReaches(n); w != "" {
				why = w
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if w := r.writeSink(lhs, body); w != "" {
					why = w
					return false
				}
			}
		case *ast.IncDecStmt:
			if w := r.writeSink(n.X, body); w != "" {
				why = w
				return false
			}
		}
		return true
	})
	return why
}

// writeSink classifies an assignment target as a model-state write when
// it is a field of a type declared in a model package. Writes rooted at
// a variable declared inside the analyzed body are local aggregation
// (e.g. summing shim counters into a fresh Stats value) and are exempt;
// the bug shape is a hook mutating state it captured or was handed.
func (r *reacher) writeSink(lhs ast.Expr, body ast.Node) string {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if root := rootIdent(sel.X); root != nil {
		if obj := r.pass.TypesInfo.ObjectOf(root); obj != nil &&
			body.Pos() <= obj.Pos() && obj.Pos() <= body.End() {
			return ""
		}
	}
	t := r.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if modelRE.MatchString(named.Obj().Pkg().Path()) {
		return "a model-state write (" + named.Obj().Name() + "." + sel.Sel.Name + ")"
	}
	return ""
}

// rootIdent unwraps a selector/index/deref chain to its base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (r *reacher) callReaches(call *ast.CallExpr) string {
	fn, ok := typeutil.Callee(r.pass.TypesInfo, call).(*types.Func)
	if !ok {
		return ""
	}
	if w := sinkName(fn); w != "" {
		return w
	}
	if fn.Pkg() == r.pass.Pkg {
		if w := r.funcReaches(fn); w != "" {
			return w + " (via " + fn.Name() + ")"
		}
	}
	return ""
}

func (r *reacher) funcReaches(fn *types.Func) string {
	if w, ok := r.memo[fn]; ok {
		return w // also breaks recursion: in-progress reads as ""
	}
	r.memo[fn] = ""
	decl := r.decls[fn]
	if decl == nil || decl.Body == nil {
		return ""
	}
	w := r.bodyReaches(decl.Body)
	r.memo[fn] = w
	return w
}

// sinkName classifies a callee as a scheduling sink.
func sinkName(fn *types.Func) string {
	if !schedNames[fn.Name()] {
		return ""
	}
	switch recvTypeName(fn) {
	case "Engine":
		return "Engine." + fn.Name()
	case "Group":
		return "Group." + fn.Name()
	}
	return ""
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := sig.Recv()
	if recv == nil {
		return ""
	}
	return typeName(recv.Type())
}

func typeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

var usedType = reflect.TypeOf(allowdir.Used{})
