// Package detrand defines an analyzer that enforces the simulator's
// determinism contract: inside the model packages, all time must come from
// the engine clock and all entropy from the run's seeded RNG, and neither
// map iteration order nor channel receive order may ever reach the event
// queue, a digest, or emitted output.
//
// Golden-digest reproducibility (byte-identical runs for a fixed seed at
// any parallelism and shard count) is the repo's load-bearing correctness
// evidence; this analyzer turns the ways it silently rots — wall clock,
// global math/rand, map-order-dependent scheduling, and channel receives
// whose goroutine-scheduled order reaches the event queue — into build
// failures.
package detrand

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

// DefaultScope matches the packages under the determinism contract.
const DefaultScope = `^hwatch/internal/(sim|netem|tcp|core|aqm|faults|experiments|scenario|stats|harness)(/|$)`

var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock time, global math/rand, and map-iteration or " +
		"channel-receive order reaching scheduling/digesting/output in the " +
		"deterministic simulator packages",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: usedType,
	Run:        run,
}

var scope = DefaultScope

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", DefaultScope,
		"regexp of package paths under the determinism contract")
}

// bannedTime are time package functions that read or wait on the wall
// clock. Model code must use sim.Engine.Now and Engine.Schedule instead.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand are the math/rand package-level constructors that take an
// explicit source or generator; everything else at package level draws
// from the global, seed-shared source and is banned.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 constructors
}

// schedNames are the sim.Engine scheduling entry points: anything whose
// relative order depends on map iteration makes event seq assignment, and
// therefore same-instant FIFO order, nondeterministic. ScheduleRemoteArg
// is the cross-shard variant: the sender fixes the event's (sched, rank,
// seq) identity at call time, so call order reaching it is just as
// order-sensitive as a local Schedule.
var schedNames = map[string]bool{
	"Schedule": true, "ScheduleArg": true, "At": true, "AtArg": true,
	"ScheduleRemoteArg": true,
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
	r := &reacher{pass: pass, decls: indexFuncDecls(pass), memo: make(map[*types.Func]string)}

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil), (*ast.RangeStmt)(nil), (*ast.SelectStmt)(nil)}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		if strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go") {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, set, used, n)
			checkRecvArg(pass, set, used, n)
		case *ast.RangeStmt:
			checkOrderedRange(pass, set, used, r, n)
		case *ast.SelectStmt:
			checkSelect(pass, set, used, r, n)
		}
	})
	return used, nil
}

func checkCall(pass *analysis.Pass, set *allowdir.Set, used allowdir.Used, call *ast.CallExpr) {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Only package-level functions of time and math/rand are banned;
	// methods on a seeded *rand.Rand (sim.RNG) are the sanctioned path.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			allowdir.Report(pass, set, used, "detrand", call.Pos(),
				"time.%s is wall clock: model time must come from the engine clock (sim.Engine.Now / Schedule)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			allowdir.Report(pass, set, used, "detrand", call.Pos(),
				"%s.%s draws from the global, unseeded RNG: all entropy must flow through the run's sim.RNG (harness.SeedFor derivation)", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkOrderedRange flags ranging over the two orderless sources — maps
// (iteration order is randomized) and channels (receive order is goroutine
// scheduling order, which GOMAXPROCS and the OS decide) — when the loop
// body can reach an order-sensitive sink.
func checkOrderedRange(pass *analysis.Pass, set *allowdir.Set, used allowdir.Used, r *reacher, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		if why := r.bodyReaches(rng.Body); why != "" {
			allowdir.Report(pass, set, used, "detrand", rng.Pos(),
				"map iteration order can reach %s: iterate sorted keys or a slice mirror", why)
		}
	case *types.Chan:
		if why := r.bodyReaches(rng.Body); why != "" {
			allowdir.Report(pass, set, used, "detrand", rng.Pos(),
				"channel receive order can reach %s: receive order is goroutine scheduling, not simulation order — send cross-shard events from the sending engine (Engine.ScheduleRemoteArg), or drain into a slice and sort", why)
		}
	}
}

// checkSelect flags select statements whose receive arms can reach an
// order-sensitive sink: which arm wins a multi-way select is scheduler
// nondeterminism, exactly like cross-shard channel receive order.
func checkSelect(pass *analysis.Pass, set *allowdir.Set, used allowdir.Used, r *reacher, sel *ast.SelectStmt) {
	if len(sel.Body.List) < 2 {
		return // single-arm select: no ordering choice to lose
	}
	for _, cl := range sel.Body.List {
		comm, ok := cl.(*ast.CommClause)
		if !ok || !isRecvComm(comm.Comm) {
			continue
		}
		for _, stmt := range comm.Body {
			if why := r.bodyReaches(stmt); why != "" {
				allowdir.Report(pass, set, used, "detrand", comm.Pos(),
					"select receive arm can reach %s: arm choice is goroutine scheduling, not simulation order — send cross-shard events from the sending engine (Engine.ScheduleRemoteArg)", why)
				break
			}
		}
	}
}

// isRecvComm reports whether a select comm statement is a channel receive
// (`<-ch`, `v := <-ch`, `v, ok := <-ch`).
func isRecvComm(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		u, ok := s.X.(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		u, ok := s.Rhs[0].(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	}
	return false
}

// checkRecvArg flags a channel receive expression used directly as an
// argument (or receiver) of a scheduling sink: the receive decides *when*
// relative to other senders the event is armed, so seq order leaks the
// scheduler interleaving even without a loop.
func checkRecvArg(pass *analysis.Pass, set *allowdir.Set, used allowdir.Used, call *ast.CallExpr) {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok {
		return
	}
	if sinkName(fn) == "" {
		return
	}
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				allowdir.Report(pass, set, used, "detrand", u.Pos(),
					"channel receive feeds %s directly: receive order is goroutine scheduling, not simulation order — send cross-shard events from the sending engine (Engine.ScheduleRemoteArg)", sinkName(fn))
				return false
			}
			return true
		})
	}
}

// reacher answers "can this code, directly or through same-package calls,
// schedule an event, fold a digest, or emit output?" with memoization.
// The call graph is static same-package calls only; cross-package calls
// other than the recognized sinks are assumed order-insensitive.
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

// bodyReaches returns a description of the first order-sensitive sink
// reachable from the statements in body, or "".
func (r *reacher) bodyReaches(body ast.Node) (why string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if w := r.callReaches(call); w != "" {
			why = w
			return false
		}
		return true
	})
	return why
}

func (r *reacher) callReaches(call *ast.CallExpr) string {
	fn, ok := typeutil.Callee(r.pass.TypesInfo, call).(*types.Func)
	if !ok {
		return ""
	}
	if w := sinkName(fn); w != "" {
		return w
	}
	// Same-package static call: follow it.
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

// sinkName classifies a callee as an order-sensitive sink.
func sinkName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		name := recvTypeName(recv.Type())
		if schedNames[fn.Name()] && name == "Engine" {
			return "Engine." + fn.Name()
		}
		if name == "Digest" {
			return "a digest (Digest." + fn.Name() + ")"
		}
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return "emitted output (fmt." + fn.Name() + ")"
	}
	return ""
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

var usedType = reflect.TypeOf(allowdir.Used{})
