package lint

// This file is loopowner's engine: a module-internal direct-call
// callgraph over one type-checked package. Edges are static calls whose
// callee resolves to a function or method declared in the package; calls
// through function values, interfaces, or other packages are not edges.
// The graph distinguishes calls made on the calling goroutine from code
// launched via go statements, which is what lets loopowner answer "which
// goroutine can reach this statement".

import (
	"go/ast"
	"go/types"
)

// CallGraph is the package's direct-call graph.
type CallGraph struct {
	decls map[*types.Func]*ast.FuncDecl
	// calls[f] are the package-local functions f calls directly on its own
	// goroutine (code inside go-launched literals is excluded — it runs
	// elsewhere and is accounted to spawned instead).
	calls map[*types.Func][]*types.Func
	// spawned are the package-local functions go statements run on new
	// goroutines: named go targets and the direct calls of go-launched
	// literals.
	spawned []*types.Func
}

// BuildCallGraph constructs the callgraph of the package under analysis.
func BuildCallGraph(pass *Pass) *CallGraph {
	cg := &CallGraph{
		decls: make(map[*types.Func]*ast.FuncDecl),
		calls: make(map[*types.Func][]*types.Func),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				cg.decls[fn] = fd
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			cg.walkBody(pass, fn, fd.Body)
		}
	}
	return cg
}

// Decls returns every package-local declared function with a body. The map
// is the graph's own index — callers must not mutate it.
func (cg *CallGraph) Decls() map[*types.Func]*ast.FuncDecl { return cg.decls }

// walkBody collects call edges and spawned functions from one body. owner
// is the declared function the synchronous code belongs to.
func (cg *CallGraph) walkBody(pass *Pass, owner *types.Func, body ast.Node) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			cg.spawn(pass, n)
			// The call expression's arguments evaluate on the spawning
			// goroutine; the spawned body does not.
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			if _, isLit := n.Call.Fun.(*ast.FuncLit); !isLit {
				ast.Inspect(n.Call.Fun, walk)
			}
			return false
		case *ast.CallExpr:
			if callee := cg.resolve(pass, n); callee != nil {
				cg.calls[owner] = append(cg.calls[owner], callee)
			}
		case *ast.FuncLit:
			// Non-go literal: runs (when called) on contexts that at least
			// include the owner's; attribute its calls to the owner.
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

// spawn records what one go statement runs on its new goroutine: the
// named callee, or the direct calls of the spawned literal (a go
// statement nested in the literal is recorded in turn).
func (cg *CallGraph) spawn(pass *Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		if callee := cg.resolve(pass, g.Call); callee != nil {
			cg.spawned = append(cg.spawned, callee)
		}
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.GoStmt); ok {
			cg.spawn(pass, inner)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := cg.resolve(pass, call); callee != nil {
				cg.spawned = append(cg.spawned, callee)
			}
		}
		return true
	})
}

// resolve returns the package-local declared function a call statically
// targets, or nil.
func (cg *CallGraph) resolve(pass *Pass, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	if _, ok := cg.decls[fn]; !ok {
		return nil
	}
	return fn
}

// Reachable returns the closure of seed under same-goroutine direct-call
// edges, including the seeds themselves.
func (cg *CallGraph) Reachable(seed ...*types.Func) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	var stack []*types.Func
	for _, fn := range seed {
		if fn != nil && !out[fn] {
			out[fn] = true
			stack = append(stack, fn)
		}
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, callee := range cg.calls[fn] {
			if !out[callee] {
				out[callee] = true
				stack = append(stack, callee)
			}
		}
	}
	return out
}

// GoroutineReachable returns every package-local function that can run on
// a spawned goroutine: named go targets, direct calls from go-launched
// literals, and the direct-call closure of both.
func (cg *CallGraph) GoroutineReachable() map[*types.Func]bool {
	return cg.Reachable(cg.spawned...)
}
