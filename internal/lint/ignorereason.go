package lint

import (
	"strings"
)

// IgnoreReason requires every `//pinlint:ignore` directive to name the
// analyzers it acknowledges and to carry a non-empty reason. A directive is
// a reviewed claim that flagged code is deliberate; a bare one is
// indistinguishable from a silenced warning nobody looked at, and one
// naming an analyzer the suite does not have acknowledges nothing.
// Uniquely, this analyzer's findings cannot themselves be suppressed by a
// directive — otherwise a reasonless `//pinlint:ignore ignorereason` would
// silence the very check that demands the reason.
var IgnoreReason = &Analyzer{
	Name: "ignorereason",
	Doc: "require //pinlint:ignore directives to name existing analyzers (or all) and " +
		"carry a non-empty reason (directives cannot suppress this analyzer)",
}

// The names are checked against All(), which lists IgnoreReason itself,
// so Run is set here rather than in the initializer (a cycle there).
func init() { IgnoreReason.Run = runIgnoreReason }

func runIgnoreReason(pass *Pass) error {
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, directivePrefix) {
					continue // prose mentioning the directive, not a directive
				}
				fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
				// A field opening a nested comment is not a real analyzer
				// name or reason — it is where the directive's content ends
				// (fixtures use this to attach expectations).
				if len(fields) == 0 || strings.HasPrefix(fields[0], "//") {
					pass.reportAlways(c.Pos(),
						"bare //pinlint:ignore directive: name the acknowledged analyzer(s) and give a reason")
					continue
				}
				for _, name := range strings.Split(fields[0], ",") {
					if !analyzerNamed(name) {
						pass.reportAlways(c.Pos(),
							"//pinlint:ignore names %q, which is not an analyzer (pinlint -list prints them)", name)
					}
				}
				reason := fields[1:]
				if len(reason) == 0 || strings.HasPrefix(reason[0], "//") {
					pass.reportAlways(c.Pos(),
						"//pinlint:ignore %s has no reason; a directive is a reviewed claim — say why the finding is deliberate",
						fields[0])
				}
			}
		}
	}
	return nil
}

// analyzerNamed reports whether a directive may name name: "all" or an
// analyzer of the suite.
func analyzerNamed(name string) bool {
	if name == "all" {
		return true
	}
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}
