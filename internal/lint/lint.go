// Package lint is pinlint's analysis framework: a small, stdlib-only
// re-implementation of the golang.org/x/tools/go/analysis driver shape
// (Analyzer, Pass, Diagnostic) plus the project's analyzers.
//
// The repo's headline claims are bit-exactness claims — the zero-fault ECC
// build is pinned bit-identical to the golden path and the event-driven
// scheduler bit-identical to the legacy loop — and the invariants that make
// those claims hold (seeded RNG only, no wall clock, no map-iteration-order
// leaking into results, no float == in cost math, %w-wrapped sentinels,
// exhaustive enum switches, no undocumented panics in library packages)
// are what these analyzers machine-check. cmd/pinlint runs the suite over
// the module; each analyzer has positive and negative fixtures under
// testdata/src driven by the linttest harness.
//
// A finding can be acknowledged in place with a directive comment
//
//	//pinlint:ignore <analyzer> <reason>
//
// on the same line, the line above, or in the doc comment of the enclosing
// function declaration. The reason is mandatory and machine-checked (the
// ignorereason analyzer): a directive is a reviewed claim that the flagged
// code is deliberate, and a bare one is indistinguishable from a silenced
// warning nobody looked at.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker, mirroring the x/tools analysis.Analyzer
// surface pinlint needs: a name, a doc string, and a Run function over a
// fully type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is the one-paragraph description `pinlint -list` prints.
	Doc string
	// Run inspects one package and reports findings through pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags      []Diagnostic
	directives []directive
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an ignore directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(pos, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportAlways records a finding regardless of ignore directives. Only the
// directive hygiene analyzer uses it: a directive must not be able to
// suppress the check that validates directives.
func (p *Pass) reportAlways(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //pinlint:ignore comment.
type directive struct {
	file      string
	line      int
	analyzers map[string]bool
	// funcRange is set when the directive sits in a function's doc
	// comment: it then covers the whole declaration.
	funcStart, funcEnd token.Pos
}

func (d directive) covers(name string, pos token.Pos, position token.Position) bool {
	if !d.analyzers[name] && !d.analyzers["all"] {
		return false
	}
	if d.funcStart != token.NoPos {
		return pos >= d.funcStart && pos <= d.funcEnd
	}
	return d.file == position.Filename &&
		(d.line == position.Line || d.line == position.Line-1)
}

func (p *Pass) suppressed(pos token.Pos, position token.Position) bool {
	for _, d := range p.directives {
		if d.covers(p.Analyzer.Name, pos, position) {
			return true
		}
	}
	return false
}

const directivePrefix = "pinlint:ignore"

// parseDirectives collects every //pinlint:ignore comment in the package.
func parseDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		// Doc-comment directives cover the whole declared function.
		funcDocs := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = fd
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
				if len(fields) == 0 {
					continue
				}
				d := directive{
					analyzers: map[string]bool{},
					file:      fset.Position(c.Pos()).Filename,
					line:      fset.Position(c.Pos()).Line,
				}
				for _, name := range strings.Split(fields[0], ",") {
					d.analyzers[name] = true
				}
				if fd, ok := funcDocs[cg]; ok {
					d.funcStart, d.funcEnd = fd.Pos(), fd.End()
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// Run executes one analyzer over one loaded package and returns its
// findings sorted by position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.TypesInfo,
		directives: parseDirectives(pkg.Fset, pkg.Files),
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sort.Slice(pass.diags, func(i, j int) bool {
		a, b := pass.diags[i].Pos, pass.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return pass.diags, nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DetRand,
		MapOrder,
		FloatEq,
		WrapErr,
		EnumSwitch,
		PanicFree,
		TimeMix,
		APILeak,
		IgnoreReason,
		LoopOwner,
		RowWrite,
	}
}
