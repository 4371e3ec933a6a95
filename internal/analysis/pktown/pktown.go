// Package pktown defines an analyzer that mechanically checks the pooled
// packet linear-ownership contract (DESIGN.md §6e): a *Packet obtained
// from a free list must, on every path, be released exactly once or have
// its ownership transferred (enqueued, delivered, scheduled, returned or
// stored). It flags
//
//   - use-after-release: reading a packet variable after ReleasePacket,
//   - double release: a second ReleasePacket on a path that already
//     released the variable, and
//   - leaks: a path that exits with the packet still owned — the bug class
//     a deleted ReleasePacket on a drop path introduces.
//
// The analysis is intra-procedural over the go/cfg control-flow graph,
// name-based and deliberately conservative. Tracked variables are locals
// initialized from an allocator (AllocPacket / ClonePacket, as a function
// or as a method such as Host.AllocPacket) and *Packet
// parameters of functions that release them (a function releasing a
// parameter on one path has accepted the release obligation on all paths).
// Ownership transfers are recognized by callee name (Send, Deliver,
// Enqueue, Inject*, Schedule*, ...); all other calls borrow. Conditional
// transfers (netem.Filter's VerdictStolen protocol) are outside the
// model's reach — annotate those sites with //hwatchvet:allow pktown.
package pktown

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"regexp"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"hwatch/internal/analysis/allowdir"
)

// DefaultScope matches the packages that touch pooled packets.
const DefaultScope = `^hwatch/internal/(sim|netem|tcp|core|aqm)(/|$)`

// DefaultTransfer matches callee names that take packet ownership.
const DefaultTransfer = `^(Send|Deliver|Enqueue|Push|Transmit|transmit|deliverUp|Forward|Inject.*|inject.*|Schedule.*|At|AtArg)$`

var Analyzer = &analysis.Analyzer{
	Name: "pktown",
	Doc: "check the pooled packet linear-ownership contract: no use after " +
		"ReleasePacket, no double release, no drop path that leaks an owned packet",
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer},
	ResultType: reflect.TypeOf(allowdir.Used{}),
	Run:        run,
}

var (
	scope       = DefaultScope
	transferPat = DefaultTransfer
	typeName    = "Packet"
)

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", DefaultScope,
		"regexp of package paths under the packet-ownership contract")
	Analyzer.Flags.StringVar(&transferPat, "transfer", DefaultTransfer,
		"regexp of callee names that take packet ownership")
}

// Ownership state bits. Join over paths is bitwise OR; reports fire only
// on definite states so merged paths stay quiet.
type state uint8

const (
	owned state = 1 << iota
	released
	escaped
	allBits = owned | released | escaped
)

func run(pass *analysis.Pass) (any, error) {
	used := allowdir.Used{}
	re, err := regexp.Compile(scope)
	if err != nil {
		return nil, err
	}
	if !re.MatchString(pass.Pkg.Path()) {
		return used, nil
	}
	transferRE, err := regexp.Compile(transferPat)
	if err != nil {
		return nil, err
	}
	set := allowdir.Collect(pass)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	for _, f := range pass.Files {
		if allowdir.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := cfgs.FuncDecl(fd)
			if g == nil {
				continue
			}
			a := &funcAnalysis{
				pass: pass, set: set, used: used, transferRE: transferRE,
				reported: make(map[token.Pos]bool),
			}
			a.analyze(fd, g)
		}
	}
	return used, nil
}

type funcAnalysis struct {
	pass       *analysis.Pass
	set        *allowdir.Set
	used       allowdir.Used
	transferRE *regexp.Regexp
	tracked    map[*types.Var]bool
	reported   map[token.Pos]bool
}

func (a *funcAnalysis) analyze(fd *ast.FuncDecl, g *cfg.CFG) {
	a.tracked = a.findTracked(fd)
	if len(a.tracked) == 0 {
		return
	}

	entry := make(map[*types.Var]state)
	for v := range a.tracked {
		if isParam(fd, v) {
			entry[v] = owned
		}
	}

	in := make(map[*cfg.Block]map[*types.Var]state)
	if len(g.Blocks) == 0 {
		return
	}
	in[g.Blocks[0]] = entry

	// Fixpoint: states only accumulate bits, so this terminates. Reports
	// are deferred to a final stable pass so interim states cannot
	// produce spurious diagnostics.
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if !b.Live {
				continue
			}
			st, ok := in[b]
			if !ok {
				continue
			}
			out := a.flowBlock(b, cloneState(st), false)
			for _, succ := range b.Succs {
				if merged, delta := join(in[succ], out); delta {
					in[succ] = merged
					changed = true
				}
			}
		}
	}
	// Report pass.
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		st, ok := in[b]
		if !ok {
			continue
		}
		a.flowBlock(b, cloneState(st), true)
	}
}

// flowBlock applies the transfer function to every node of b, returning
// the exit state. When report is set, diagnostics fire.
func (a *funcAnalysis) flowBlock(b *cfg.Block, st map[*types.Var]state, report bool) map[*types.Var]state {
	panicked := false
	for _, n := range b.Nodes {
		a.stepNode(n, st, report)
		if isPanicNode(n) {
			panicked = true
		}
	}
	// Function-exit leak check: a live block with no successors ends the
	// function (return, fall-off-end or a no-return call like panic).
	if report && len(b.Succs) == 0 && !panicked {
		pos := token.NoPos
		if len(b.Nodes) > 0 {
			pos = b.Nodes[len(b.Nodes)-1].Pos()
		}
		a.checkLeaks(st, pos)
	}
	return st
}

func (a *funcAnalysis) checkLeaks(st map[*types.Var]state, pos token.Pos) {
	for v, s := range st {
		if s == owned {
			p := pos
			if p == token.NoPos {
				p = v.Pos()
			}
			a.reportOnce(p, "pooled packet %s leaks on this path: neither released, forwarded, nor returned", v.Name())
		}
	}
}

func (a *funcAnalysis) reportOnce(pos token.Pos, format string, args ...any) {
	if a.reported[pos] {
		return
	}
	a.reported[pos] = true
	allowdir.Report(a.pass, a.set, a.used, "pktown", pos, format, args...)
}

// stepNode applies one CFG node to the state.
func (a *funcAnalysis) stepNode(n ast.Node, st map[*types.Var]state, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.stepAssign(n, st, report)
	case *ast.ValueSpec:
		for _, rhs := range n.Values {
			a.evalExpr(rhs, st, report, true)
		}
		for i, name := range n.Names {
			if v := a.trackedDef(name); v != nil {
				if i < len(n.Values) && a.isAllocCall(n.Values[i]) {
					st[v] = owned
				} else {
					st[v] = allBits
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if v := a.trackedUse(res); v != nil {
				a.checkUse(v, res.Pos(), st, report)
				st[v] = st[v]&^owned | escaped
			} else {
				a.evalExpr(res, st, report, true)
			}
		}
		if report {
			a.checkLeaks(st, n.Pos())
		}
	case *ast.SendStmt:
		if v := a.trackedUse(n.Value); v != nil {
			a.checkUse(v, n.Value.Pos(), st, report)
			st[v] = st[v]&^owned | escaped
		} else {
			a.evalExpr(n.Value, st, report, true)
		}
		a.evalExpr(n.Chan, st, report, false)
	case *ast.DeferStmt:
		// defer ReleasePacket(p) and friends: the deferred call owns the
		// packet from here on; no further checking.
		for _, arg := range n.Call.Args {
			if v := a.trackedUse(arg); v != nil {
				st[v] = st[v]&^owned | escaped
			}
		}
	case *ast.GoStmt:
		for _, arg := range n.Call.Args {
			if v := a.trackedUse(arg); v != nil {
				st[v] = st[v]&^owned | escaped
			}
		}
	case ast.Expr:
		a.evalExpr(n, st, report, false)
	case *ast.ExprStmt:
		a.evalExpr(n.X, st, report, false)
	case *ast.IncDecStmt:
		a.evalExpr(n.X, st, report, false)
	}
}

func (a *funcAnalysis) stepAssign(n *ast.AssignStmt, st map[*types.Var]state, report bool) {
	// RHS first (evaluation order), noting 1:1 acquisitions and aliases.
	oneToOne := len(n.Lhs) == len(n.Rhs)
	for i, rhs := range n.Rhs {
		isValueFlow := true
		if oneToOne && isBlank(n.Lhs[i]) {
			isValueFlow = false // _ = p is a no-op, not an escape
		}
		if v := a.trackedUse(rhs); v != nil {
			a.checkUse(v, rhs.Pos(), st, report)
			if isValueFlow {
				// Aliased into another variable or stored: give up precise
				// tracking of the source (conservative: no reports later).
				st[v] = st[v]&^owned | escaped
			}
			continue
		}
		a.evalExpr(rhs, st, report, true)
	}
	for i, lhs := range n.Lhs {
		if v := a.trackedDef(lhs); v != nil {
			if oneToOne && a.isAllocCall(n.Rhs[i]) {
				st[v] = owned
			} else {
				st[v] = allBits
			}
			continue
		}
		// Stores through fields/indexes: the RHS walk above already marked
		// escaping idents; just evaluate the LHS expression for uses.
		if !isBlank(lhs) {
			if _, ok := lhs.(*ast.Ident); !ok {
				a.evalExpr(lhs, st, report, false)
			}
		}
	}
}

// evalExpr walks an expression, performing use checks and ownership
// transitions. valueFlows marks contexts where the expression's value is
// stored somewhere (composite literals, assignments, call results), so a
// bare tracked ident escapes.
func (a *funcAnalysis) evalExpr(e ast.Expr, st map[*types.Var]state, report, valueFlows bool) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.CallExpr:
		a.evalCall(e, st, report)
	case *ast.Ident:
		if v := a.trackedUse(e); v != nil {
			a.checkUse(v, e.Pos(), st, report)
			if valueFlows {
				st[v] = st[v]&^owned | escaped
			}
		}
	case *ast.FuncLit:
		// Captured packets can do anything; stop tracking them.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v := a.trackedUse(id); v != nil {
					st[v] = allBits
				}
			}
			return true
		})
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			a.evalExpr(elt, st, report, true)
		}
	case *ast.KeyValueExpr:
		a.evalExpr(e.Key, st, report, true)
		a.evalExpr(e.Value, st, report, true)
	case *ast.ParenExpr:
		a.evalExpr(e.X, st, report, valueFlows)
	case *ast.UnaryExpr:
		a.evalExpr(e.X, st, report, valueFlows)
	case *ast.StarExpr:
		a.evalExpr(e.X, st, report, false)
	case *ast.SelectorExpr:
		a.evalExpr(e.X, st, report, false)
	case *ast.IndexExpr:
		a.evalExpr(e.X, st, report, false)
		a.evalExpr(e.Index, st, report, false)
	case *ast.SliceExpr:
		a.evalExpr(e.X, st, report, false)
	case *ast.BinaryExpr:
		a.evalExpr(e.X, st, report, false)
		a.evalExpr(e.Y, st, report, false)
	case *ast.TypeAssertExpr:
		a.evalExpr(e.X, st, report, valueFlows)
	}
}

func (a *funcAnalysis) evalCall(call *ast.CallExpr, st map[*types.Var]state, report bool) {
	name := calleeName(call)

	// ReleasePacket(p): the ownership transition this analyzer exists for.
	if isReleaseName(name) && len(call.Args) == 1 {
		if v := a.trackedUse(call.Args[0]); v != nil {
			if st[v] == released {
				if report {
					a.reportOnce(call.Pos(), "double release of packet %s: already released on this path", v.Name())
				}
			}
			st[v] = st[v]&^owned | released
			return
		}
	}

	// Receiver expression is a borrow (p.FlowKey() etc.).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if v := a.trackedUse(sel.X); v != nil {
			a.checkUse(v, sel.X.Pos(), st, report)
		} else {
			a.evalExpr(sel.X, st, report, false)
		}
	}

	transfers := name != "" && a.transferRE.MatchString(name)
	for _, arg := range call.Args {
		if v := a.trackedUse(arg); v != nil {
			a.checkUse(v, arg.Pos(), st, report)
			if transfers {
				st[v] = st[v]&^owned | escaped
			}
			continue
		}
		a.evalExpr(arg, st, report, true)
	}
}

// checkUse reports a read of a variable that is definitely released.
func (a *funcAnalysis) checkUse(v *types.Var, pos token.Pos, st map[*types.Var]state, report bool) {
	if report && st[v] == released {
		a.reportOnce(pos, "use of packet %s after ReleasePacket", v.Name())
	}
}

// trackedUse resolves e to a tracked variable used as a value.
func (a *funcAnalysis) trackedUse(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := a.pass.TypesInfo.Uses[id].(*types.Var)
	if ok && a.tracked[v] {
		return v
	}
	return nil
}

// trackedDef resolves an assignment LHS to a tracked variable (definition
// or reassignment).
func (a *funcAnalysis) trackedDef(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := a.pass.TypesInfo.Defs[id].(*types.Var); ok && a.tracked[v] {
		return v
	}
	if v, ok := a.pass.TypesInfo.Uses[id].(*types.Var); ok && a.tracked[v] {
		return v
	}
	return nil
}

// findTracked collects the variables under ownership tracking in fd:
// locals initialized from an allocator, and *Packet parameters the
// function releases on some path.
func (a *funcAnalysis) findTracked(fd *ast.FuncDecl) map[*types.Var]bool {
	tracked := make(map[*types.Var]bool)
	info := a.pass.TypesInfo

	// Locals: p := AllocPacket(...) / var p = ClonePacket(...).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if !a.isAllocCall(rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if v := defOrUseVar(info, id); v != nil {
						tracked[v] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, val := range n.Values {
				if !a.isAllocCall(val) {
					continue
				}
				if i < len(n.Names) {
					if v := defOrUseVar(info, n.Names[i]); v != nil {
						tracked[v] = true
					}
				}
			}
		}
		return true
	})

	// Parameters of packet type that the body releases.
	params := make(map[*types.Var]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok && isPacketPtr(v.Type()) {
					params[v] = true
				}
			}
		}
	}
	if len(params) > 0 {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isReleaseName(calleeName(call)) || len(call.Args) != 1 {
				return true
			}
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && params[v] {
					tracked[v] = true
				}
			}
			return true
		})
	}
	return tracked
}

func defOrUseVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

func (a *funcAnalysis) isAllocCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch calleeName(call) {
	case "AllocPacket", "ClonePacket":
		return true
	}
	return false
}

func isReleaseName(name string) bool { return name == "ReleasePacket" }

// calleeName extracts the bare called name: ReleasePacket,
// netem.ReleasePacket, h.ReleasePacket, p.free.ReleasePacket and q.Enqueue
// all yield their Sel/Ident name, so the free-list methods match like the
// package functions.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func isPacketPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == typeName
}

func isParam(fd *ast.FuncDecl, v *types.Var) bool {
	if fd.Type.Params == nil {
		return false
	}
	return fd.Type.Params.Pos() <= v.Pos() && v.Pos() <= fd.Type.Params.End()
}

func isPanicNode(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func cloneState(st map[*types.Var]state) map[*types.Var]state {
	out := make(map[*types.Var]state, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// join merges out into the successor's in-state, reporting change.
func join(dst, src map[*types.Var]state) (map[*types.Var]state, bool) {
	if dst == nil {
		return cloneState(src), true
	}
	changed := false
	for v, s := range src {
		if dst[v]|s != dst[v] {
			dst[v] |= s
			changed = true
		}
	}
	return dst, changed
}
