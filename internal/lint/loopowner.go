package lint

// LoopOwner makes the state-loop ownership convention machine-checked. The
// server's bit-exactness argument (DESIGN §13) rests on a single goroutine
// owning the System and the window state: connection readers/writers only
// move requests and responses, and everything between admission and merge
// happens on the loop. That convention is declared in the source with
//
//	//pinlint:owned <Owner>[,<Owner>...]
//
// on a struct field: the field may be touched only by the named owner
// function/method and the functions it dominates in the direct-call
// callgraph — never from a go statement's subtree, never from a function
// reachable from one, and never from an exported function other than the
// owner, which other packages call from their own goroutines whether or
// not the owner calls it too. Functions whose results mention the
// annotated struct's type are constructors and exempt (they initialize the
// value before the owner's loop starts). An unexported helper that both
// the owner's tree and such an exported function call is not flagged: the
// callgraph says who calls it, not on which goroutine.

import (
	"go/ast"
	"go/types"
	"strings"
)

// LoopOwner flags accesses to //pinlint:owned struct fields from outside
// the owner's call tree or from goroutine-reachable code.
var LoopOwner = &Analyzer{
	Name: "loopowner",
	Doc: "flag accesses to //pinlint:owned struct fields from outside the " +
		"owner's call tree or from goroutine-reachable code",
	Run: runLoopOwner,
}

const ownedPrefix = "pinlint:owned"

// ownedField is one annotated struct field with its resolved check sets.
type ownedField struct {
	obj    types.Object // the field's *types.Var
	strct  *types.Named // the struct's named type
	owners []string     // owner function/method names from the directive
	// ownerSet is the owner's direct-call closure; ctors are the struct's
	// constructors. Filled in by runLoopOwner.
	ownerSet map[*types.Func]bool
	ctors    map[*types.Func]bool
}

func runLoopOwner(pass *Pass) error {
	fields := collectOwnedFields(pass)
	if len(fields) == 0 {
		return nil
	}
	cg := BuildCallGraph(pass)
	goSet := cg.GoroutineReachable()

	checks := make(map[types.Object]*ownedField)
	for i := range fields {
		f := &fields[i]
		var seed []*types.Func
		for fn := range cg.Decls() {
			if f.isOwner(fn) {
				//pinlint:ignore maporder seed feeds Reachable's set closure; collection order cannot reach the output
				seed = append(seed, fn)
			}
		}
		f.ownerSet = cg.Reachable(seed...)
		f.ctors = constructorsOf(cg, f.strct)
		checks[f.obj] = f
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			checkOwnedAccesses(pass, fd.Body, fn, checks, goSet, false)
		}
	}
	return nil
}

// checkOwnedAccesses reports annotated-field accesses in body. inGo marks
// that body executes on a spawned goroutine (a go statement's literal).
func checkOwnedAccesses(pass *Pass, body ast.Node, fn *types.Func,
	checks map[types.Object]*ownedField, goSet map[*types.Func]bool, inGo bool) {

	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				// Arguments evaluate on the spawning goroutine; the body
				// runs on the new one.
				for _, arg := range g.Call.Args {
					checkOwnedAccesses(pass, arg, fn, checks, goSet, inGo)
				}
				checkOwnedAccesses(pass, lit.Body, fn, checks, goSet, true)
				return false
			}
			return true
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil {
			return true
		}
		f, ok := checks[obj]
		if !ok {
			return true
		}
		fieldName := f.strct.Obj().Name() + "." + obj.Name()
		owner := strings.Join(f.owners, ",")
		switch {
		case inGo:
			pass.Reportf(sel.Pos(),
				"state-loop-owned field %s (owner %s) accessed inside a go statement",
				fieldName, owner)
		case goSet[fn]:
			pass.Reportf(sel.Pos(),
				"state-loop-owned field %s (owner %s) accessed in %s, which is reachable from a go statement",
				fieldName, owner, fn.Name())
		case !f.ownerSet[fn] && !f.ctors[fn]:
			pass.Reportf(sel.Pos(),
				"state-loop-owned field %s (owner %s) accessed in %s, outside the owner's call tree",
				fieldName, owner, fn.Name())
		case fn.Exported() && !f.isOwner(fn) && !f.ctors[fn]:
			// The owner calling an exported function does not make it
			// loop-only: other packages call it from their own goroutines.
			pass.Reportf(sel.Pos(),
				"state-loop-owned field %s (owner %s) accessed in exported %s, which other packages may call from any goroutine",
				fieldName, owner, fn.Name())
		}
		return true
	})
}

// isOwner reports whether fn is one of the field's named owners: a plain
// function or a method of the annotated struct.
func (f *ownedField) isOwner(fn *types.Func) bool {
	if !containsName(f.owners, fn.Name()) {
		return false
	}
	r := recvNamed(fn)
	return r == nil || r == f.strct
}

// collectOwnedFields parses //pinlint:owned directives on struct fields.
func collectOwnedFields(pass *Pass) []ownedField {
	var out []ownedField
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if tn == nil {
				return true
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				owners := ownedDirective(field.Doc)
				if owners == nil {
					owners = ownedDirective(field.Comment)
				}
				if owners == nil {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out = append(out, ownedField{obj: obj, strct: named, owners: owners})
					}
				}
			}
			return true
		})
	}
	return out
}

// ownedDirective parses one comment group for //pinlint:owned. Like Go's
// own directives the marker must follow the slashes immediately — prose
// that merely mentions pinlint:owned mid-sentence is not a directive.
func ownedDirective(cg *ast.CommentGroup) []string {
	if cg == nil {
		return nil
	}
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, "//"+ownedPrefix)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		return strings.Split(fields[0], ",")
	}
	return nil
}

// constructorsOf returns the declared functions whose result types mention
// strct (directly or behind a pointer) — the builders that run before any
// ownership discipline applies.
func constructorsOf(cg *CallGraph, strct *types.Named) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for fn := range cg.Decls() {
		res := fn.Signature().Results()
		for i := 0; i < res.Len(); i++ {
			t := res.At(i).Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named == strct {
				out[fn] = true
			}
		}
	}
	return out
}

// recvNamed returns the named type of fn's receiver (nil for plain
// functions), unwrapping a pointer receiver.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func containsName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
