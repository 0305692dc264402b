package lint

// This file is the control-flow half of pinlint's analysis engine: an
// intra-procedural CFG built from go/ast alone (no SSA, no x/tools). It
// answers the question per-function AST walks cannot: "which statements
// can execute after this one" (reachability along edges, including loop
// back-edges), which the concurrency-ownership analyzers (lockpair,
// frozenprog) ask. The CFG is statement-granular — each Block holds the
// ast.Nodes that execute unconditionally together, in order — which keeps
// transfer functions simple folds over Block.Nodes.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal run of nodes with a single entry and
// a single exit point. Branch conditions (if/for conditions, switch tags,
// range operands) appear as the last node of the block that evaluates
// them, so the block holding a condition is the one whose Succs branch on
// it.
type Block struct {
	// Index is the block's position in CFG.Blocks (entry is 0).
	Index int
	// Nodes are the statements and condition expressions executed in
	// order when control enters the block.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body. Exit is a synthetic
// empty block every return (and the fall-off-the-end path) edges to, so
// "reaches function exit" is a plain reachability query.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block

	// Defers lists every defer statement in the body, in source order.
	// Deferred calls run at every exit; path-sensitive analyses treat
	// reaching a DeferStmt as arming its call for the rest of the
	// function.
	Defers []*ast.DeferStmt

	blockOf map[ast.Node]*Block
}

// BlockOf returns the block a node was placed in, or nil for nodes that
// are not block-level (sub-expressions, nested statements inside a node
// that was added whole).
func (g *CFG) BlockOf(n ast.Node) *Block { return g.blockOf[n] }

// BuildCFG constructs the CFG of one function body. It handles the full
// statement grammar: if/else chains, for and range loops, expression and
// type switches (including fallthrough), select, labeled break/continue,
// goto, and early returns. Calls to panic terminate their path (edge to
// Exit): the analyzers' paths-to-exit queries then see panicking branches
// as returns, which is how the runtime treats them too. Function literals
// are opaque nodes here — each literal body gets its own CFG via the
// funcBodies walk in callgraph.go.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{blockOf: make(map[ast.Node]*Block)}
	b := &cfgBuilder{g: g, labels: make(map[string]*labelTarget)}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.collectLabels(body)
	b.stmtList(body.List)
	// Fall off the end of the body: an implicit return.
	b.edge(b.cur, g.Exit)
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return g
}

// labelTarget resolves one label: the block a goto jumps to, and the
// break/continue targets while the labeled statement is being built.
type labelTarget struct {
	goto_     *Block // jump-in point (created on demand)
	break_    *Block
	continue_ *Block
}

type cfgBuilder struct {
	g   *CFG
	cur *Block
	// breakTo / continueTo are the innermost unlabeled targets.
	breakTo    *Block
	continueTo *Block
	labels     map[string]*labelTarget
	// pendingLabel is the target record of the labeled statement
	// currently being built, so the loop/switch it labels can bind its
	// break/continue blocks to it.
	pendingLabel *labelTarget
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block and records its placement.
func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.g.blockOf[n] = b.cur
}

// collectLabels pre-creates a jump-in block for every label so forward
// gotos have a target before their labeled statement is reached.
func (b *cfgBuilder) collectLabels(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if l, ok := n.(*ast.LabeledStmt); ok {
			b.labels[l.Label.Name] = &labelTarget{goto_: b.newBlock()}
		}
		return true
	})
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isPanicCall reports a direct call to the panic builtin (by name; the
// CFG is type-free, and shadowing panic would be its own finding).
func isPanicCall(s ast.Stmt) bool {
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
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(condBlk, then)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(condBlk, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(condBlk, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, after)
		}
		b.edge(head, body)
		b.withLoop(after, post, func() {
			b.cur = body
			b.stmtList(s.Body.List)
		})
		b.edge(b.cur, post)
		if s.Post != nil {
			b.cur = post
			b.add(s.Post)
			b.edge(post, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(s.X)
		b.edge(head, body)
		b.edge(head, after) // empty collection
		b.withLoop(after, head, func() {
			b.cur = body
			b.stmtList(s.Body.List)
		})
		b.edge(b.cur, head)
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s)

	case *ast.SelectStmt:
		b.add(s) // the select itself (for analyses that look for it)
		selBlk := b.cur
		after := b.newBlock()
		var bodies []*Block
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(selBlk, blk)
			bodies = append(bodies, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.withBreak(after, func() {
				b.stmtList(cc.Body)
			})
			b.edge(b.cur, after)
		}
		if len(bodies) == 0 {
			b.edge(selBlk, after)
		}
		b.cur = after

	case *ast.LabeledStmt:
		lt := b.labels[s.Label.Name]
		b.edge(b.cur, lt.goto_)
		b.cur = lt.goto_
		// break/continue targets are wired by the inner statement builders
		// through withLoop/withBreak, which consult pendingLabel.
		b.pendingLabel = lt
		b.stmt(s.Stmt)
		if b.pendingLabel == lt {
			b.pendingLabel = nil
		}

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.branchTarget(s, true); t != nil {
				b.edge(b.cur, t)
			}
		case token.CONTINUE:
			if t := b.branchTarget(s, false); t != nil {
				b.edge(b.cur, t)
			}
		case token.GOTO:
			if lt, ok := b.labels[s.Label.Name]; ok {
				b.edge(b.cur, lt.goto_)
			}
		case token.FALLTHROUGH:
			// handled by switchStmt wiring (edge to next clause)
		}
		if s.Tok != token.FALLTHROUGH {
			b.cur = b.newBlock() // unreachable continuation
		}

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)

	default:
		// Flat statements: assignments, declarations, expression
		// statements (including go), sends, inc/dec, empty.
		b.add(s)
		if isPanicCall(s) {
			b.edge(b.cur, b.g.Exit)
			b.cur = b.newBlock()
		}
	}
}

func (b *cfgBuilder) switchStmt(s ast.Stmt) {
	var init ast.Stmt
	var tag ast.Node
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, tag, clauses = s.Init, s.Tag, s.Body.List
	case *ast.TypeSwitchStmt:
		init, tag, clauses = s.Init, s.Assign, s.Body.List
	}
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	tagBlk := b.cur
	after := b.newBlock()
	hasDefault := false
	var bodyBlks []*Block
	var caseBodies [][]ast.Stmt
	for _, c := range clauses {
		cc := c.(*ast.CaseClause)
		blk := b.newBlock()
		b.edge(tagBlk, blk)
		if cc.List == nil {
			hasDefault = true
		} else {
			for _, e := range cc.List {
				b.g.blockOf[e] = blk
				blk.Nodes = append(blk.Nodes, e)
			}
		}
		bodyBlks = append(bodyBlks, blk)
		caseBodies = append(caseBodies, cc.Body)
	}
	if !hasDefault {
		b.edge(tagBlk, after)
	}
	for i, blk := range bodyBlks {
		b.cur = blk
		b.withBreak(after, func() {
			b.stmtList(caseBodies[i])
		})
		// fallthrough: edge to the next clause's body block
		if n := len(caseBodies[i]); n > 0 {
			if br, ok := caseBodies[i][n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(bodyBlks) {
				b.edge(b.cur, bodyBlks[i+1])
			}
		}
		b.edge(b.cur, after)
	}
	b.cur = after
}

// withLoop runs fn with break/continue targets installed, binding a
// pending label (if the loop is labeled) to the same targets.
func (b *cfgBuilder) withLoop(brk, cont *Block, fn func()) {
	oldB, oldC := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = brk, cont
	if b.pendingLabel != nil {
		b.pendingLabel.break_ = brk
		b.pendingLabel.continue_ = cont
		b.pendingLabel = nil
	}
	fn()
	b.breakTo, b.continueTo = oldB, oldC
}

// withBreak runs fn with only the break target installed (switch/select).
func (b *cfgBuilder) withBreak(brk *Block, fn func()) {
	old := b.breakTo
	b.breakTo = brk
	if b.pendingLabel != nil {
		b.pendingLabel.break_ = brk
		b.pendingLabel = nil
	}
	fn()
	b.breakTo = old
}

// branchTarget resolves a break/continue, labeled or not.
func (b *cfgBuilder) branchTarget(s *ast.BranchStmt, isBreak bool) *Block {
	if s.Label != nil {
		if lt, ok := b.labels[s.Label.Name]; ok {
			if isBreak {
				return lt.break_
			}
			return lt.continue_
		}
		return nil
	}
	if isBreak {
		return b.breakTo
	}
	return b.continueTo
}

// Reachable returns the set of blocks reachable from `from` along edges,
// including `from` itself.
func (g *CFG) Reachable(from *Block) map[*Block]bool {
	seen := map[*Block]bool{from: true}
	stack := []*Block{from}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}
