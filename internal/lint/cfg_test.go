package lint_test

// Engine-level tests: the CFG builder and the dataflow solver are
// exercised directly on hand-written function shapes — branches, loops
// with break, early returns, panics, select, defer, goto — asserting
// edge, reachability and fixpoint facts rather than analyzer output.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"pinatubo/internal/lint"
)

// buildCFG parses src (a file body without the package clause), finds
// func f, and builds its CFG.
func buildCFG(t *testing.T, src string) (*lint.CFG, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return lint.BuildCFG(fd.Body), file
		}
	}
	t.Fatal("no func f in source")
	return nil, nil
}

// assignBlock returns the block holding the first assignment whose target
// identifier is name (tests keep these unique per function).
func assignBlock(t *testing.T, g *lint.CFG, file *ast.File, name string) *lint.Block {
	t.Helper()
	var found *lint.Block
	ast.Inspect(file, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == name {
				found = g.BlockOf(as)
				return false
			}
		}
		return true
	})
	if found == nil {
		t.Fatalf("no block found for assignment to %s", name)
	}
	return found
}

// incBlock returns the block holding the inc/dec statement of name.
func incBlock(t *testing.T, g *lint.CFG, file *ast.File, name string) *lint.Block {
	t.Helper()
	var found *lint.Block
	ast.Inspect(file, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if inc, ok := n.(*ast.IncDecStmt); ok {
			if id, ok := inc.X.(*ast.Ident); ok && id.Name == name {
				found = g.BlockOf(inc)
				return false
			}
		}
		return true
	})
	if found == nil {
		t.Fatalf("no block found for inc/dec of %s", name)
	}
	return found
}

// hasBlock reports whether blk is in list.
func hasBlock(list []*lint.Block, blk *lint.Block) bool {
	for _, b := range list {
		if b == blk {
			return true
		}
	}
	return false
}

// sameBlocks reports whether list holds exactly the blocks of want, in any
// order (the builder never records an edge twice).
func sameBlocks(list []*lint.Block, want ...*lint.Block) bool {
	if len(list) != len(want) {
		return false
	}
	for _, w := range want {
		if !hasBlock(list, w) {
			return false
		}
	}
	return true
}

// stmtBlock returns the block of the first statement satisfying pred.
func stmtBlock(t *testing.T, g *lint.CFG, file *ast.File, pred func(ast.Stmt) bool) *lint.Block {
	t.Helper()
	var found *lint.Block
	ast.Inspect(file, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if s, ok := n.(ast.Stmt); ok && pred(s) {
			found = g.BlockOf(s)
			return false
		}
		return true
	})
	if found == nil {
		t.Fatal("no block found for statement")
	}
	return found
}

func TestCFGIfElseDiamond(t *testing.T) {
	g, file := buildCFG(t, `
func f(c bool) int {
	a := 0
	if c {
		b := 1
		_ = b
	} else {
		d := 2
		_ = d
	}
	e := 3
	return e
}`)
	entry := assignBlock(t, g, file, "a")
	thenB := assignBlock(t, g, file, "b")
	elseB := assignBlock(t, g, file, "d")
	join := assignBlock(t, g, file, "e")

	if thenB == elseB || thenB == join || elseB == join {
		t.Fatalf("branch and join blocks not distinct: then=%d else=%d join=%d",
			thenB.Index, elseB.Index, join.Index)
	}
	// The diamond: the entry block splits into exactly the two branches,
	// they are the join's only predecessors, and the join returns to exit.
	if !sameBlocks(entry.Succs, thenB, elseB) {
		t.Error("entry block must branch to exactly the then and else blocks")
	}
	if !sameBlocks(join.Preds, thenB, elseB) {
		t.Error("both branch blocks, and only they, must be predecessors of the join")
	}
	if !hasBlock(g.Exit.Preds, join) {
		t.Error("the join's return must edge to the exit")
	}
	if g.Reachable(elseB)[thenB] {
		t.Error("the else path must reach the join without passing the then branch")
	}
	if r := g.Reachable(thenB); r[elseB] {
		t.Error("else branch must not be reachable from the then branch")
	}
	if r := g.Reachable(entry); !r[g.Exit] {
		t.Error("exit must be reachable from entry")
	}
}

func TestCFGLoopWithBreak(t *testing.T) {
	g, file := buildCFG(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
		b := i
		s = b
	}
	r := s
	return r
}`)
	body := assignBlock(t, g, file, "b")
	after := assignBlock(t, g, file, "r")
	post := incBlock(t, g, file, "i")

	// The loop body re-reaches itself around the back edge.
	if r := g.Reachable(post); !r[body] {
		t.Error("loop body must be reachable from the post statement (back edge)")
	}
	if !sameBlocks(post.Preds, body) {
		t.Error("the loop body tail must be the only predecessor of i++")
	}
	brk := stmtBlock(t, g, file, func(s ast.Stmt) bool {
		br, ok := s.(*ast.BranchStmt)
		return ok && br.Tok == token.BREAK
	})
	if !hasBlock(after.Preds, brk) || g.Reachable(brk)[body] {
		t.Error("the break must edge to the after-loop block, bypassing the loop body tail")
	}
	if r := g.Reachable(body); !r[after] || !r[g.Exit] {
		t.Error("after-loop block and exit must be reachable from the loop body")
	}
}

func TestCFGEarlyReturnAndPanic(t *testing.T) {
	g, file := buildCFG(t, `
func f(c bool) int {
	if !c {
		panic("x")
	}
	a := 1
	return a
}`)
	panicB := stmtBlock(t, g, file, func(s ast.Stmt) bool {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	})
	retB := assignBlock(t, g, file, "a")

	r := g.Reachable(panicB)
	if !r[g.Exit] {
		t.Error("panic must flow to the exit block")
	}
	if r[retB] {
		t.Error("code after the panicking branch must not be reachable from it")
	}
}

func TestCFGSelect(t *testing.T) {
	g, file := buildCFG(t, `
func f(a, b chan int) int {
	x := 0
	select {
	case v := <-a:
		p := v
		_ = p
	case b <- 1:
		q := 2
		_ = q
	default:
		w := 3
		_ = w
	}
	r := x
	return r
}`)
	c1 := assignBlock(t, g, file, "p")
	c2 := assignBlock(t, g, file, "q")
	c3 := assignBlock(t, g, file, "w")
	join := assignBlock(t, g, file, "r")

	if c1 == c2 || c2 == c3 || c1 == c3 {
		t.Fatal("select clauses must get distinct blocks")
	}
	if !sameBlocks(join.Preds, c1, c2, c3) {
		t.Error("every clause block, and only they, must be predecessors of the join")
	}
	for _, c := range []*lint.Block{c1, c2, c3} {
		if r := g.Reachable(c); !r[join] {
			t.Errorf("join must be reachable from clause block %d", c.Index)
		}
	}
}

func TestCFGDefer(t *testing.T) {
	g, _ := buildCFG(t, `
func done() {}
func f(c bool) int {
	defer done()
	if c {
		return 1
	}
	defer done()
	return 2
}`)
	if len(g.Defers) != 2 {
		t.Fatalf("want 2 recorded defers, got %d", len(g.Defers))
	}
}

func TestCFGGotoAndLabeledBreak(t *testing.T) {
	g, file := buildCFG(t, `
func f(n int) int {
	s := 0
loop:
	for i := 0; i < n; i++ {
		for {
			if i > 2 {
				break loop
			}
			s++
			if s > 10 {
				goto end
			}
			break
		}
	}
end:
	r := s
	return r
}`)
	body := incBlock(t, g, file, "s")
	end := assignBlock(t, g, file, "r")

	if r := g.Reachable(body); !r[end] {
		t.Error("end label must be reachable from the inner loop body (goto edge)")
	}
	if r := g.Reachable(g.Entry); !r[g.Exit] {
		t.Error("exit must be reachable from entry through the labeled loops")
	}
}

// TestSolveLoopFixpoint runs an "assigned variables" forward analysis and
// checks that loop-carried facts converge around the back edge.
func TestSolveLoopFixpoint(t *testing.T) {
	g, file := buildCFG(t, `
func f(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = i
	}
	r := x
	return r
}`)
	type fact = map[string]bool
	clone := func(f fact) fact {
		out := make(fact, len(f))
		for k := range f {
			out[k] = true
		}
		return out
	}
	transfer := func(b *lint.Block, in fact) fact {
		out := clone(in)
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					out[id.Name] = true
				}
			case *ast.IncDecStmt:
				if id, ok := n.X.(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
		}
		return out
	}
	join := func(a, b fact) fact {
		out := clone(a)
		for k := range b {
			out[k] = true
		}
		return out
	}
	equal := func(a, b fact) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	entry := lint.Solve(g, fact{}, fact{}, transfer, join, equal)

	after := assignBlock(t, g, file, "r")
	got := entry[after]
	for _, name := range []string{"x", "i"} {
		if !got[name] {
			t.Errorf("after-loop entry fact should contain %q (loop-carried), got %v", name, got)
		}
	}
}
