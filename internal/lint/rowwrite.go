package lint

// RowWrite keeps every row mutation inside the memory model. Memory keeps,
// for each materialised row, the extent of the words it holds (every word
// beyond it is zero) and copies a row borrowed from another memory through
// BorrowRow before its first change. Both hold only if a row's record
// changes through its mutators (WriteRow, CopyRow and MutableRow for the
// words, SetCheck and SetWear for the rest). PeekRow hands out the raw
// backing — the lender's, for a borrowed row — so the PIM datapath can
// read it without copying; outside the package that declares PeekRow, a
// copy into or an element store through its result is a row write that
// skips the extent and reaches a lender's row.

import (
	"go/ast"
	"go/types"
)

// RowWrite flags copies into, and element stores through, a PeekRow
// result outside the package that declares PeekRow.
var RowWrite = &Analyzer{
	Name: "rowwrite",
	Doc: "flag copy into, and element stores through, a PeekRow result " +
		"outside the package that declares PeekRow",
	Run: runRowWrite,
}

func runRowWrite(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var targets []ast.Expr
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						targets = n.Args[:1]
					}
				}
			case *ast.AssignStmt:
				targets = n.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{n.X}
			}
			for _, t := range targets {
				if foreignPeekRow(pass, t) {
					pass.Reportf(t.Pos(),
						"row write through PeekRow outside its package; use the memory's word mutators (WriteRow, CopyRow, MutableRow), which keep the row's extent and copy a borrowed row before changing it")
				}
			}
			return true
		})
	}
	return nil
}

// foreignPeekRow reports whether a write target is, or indexes or slices
// into, the result of a PeekRow method declared in another package.
func foreignPeekRow(pass *Pass, expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.CallExpr:
			sel, ok := e.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "PeekRow" {
				return false
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			return ok && fn.Pkg() != pass.Pkg
		default:
			return false
		}
	}
}
