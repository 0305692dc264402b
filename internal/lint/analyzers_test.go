package lint_test

import (
	"testing"

	"pinatubo/internal/lint"
	"pinatubo/internal/lint/linttest"
)

// Each fixture package holds at least one positive (a line carrying a
// `// want "re"` expectation) and at least one negative (clean code the
// analyzer must stay silent on); linttest fails on both unmet expectations
// and unexpected diagnostics, so the negatives are genuinely asserted.

func TestDetRand(t *testing.T) {
	linttest.Run(t, lint.DetRand, "testdata/src/detrand")
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, lint.MapOrder, "testdata/src/maporder")
}

func TestFloatEq(t *testing.T) {
	linttest.Run(t, lint.FloatEq, "testdata/src/floateq")
}

func TestWrapErr(t *testing.T) {
	linttest.Run(t, lint.WrapErr, "testdata/src/wraperr")
}

func TestEnumSwitch(t *testing.T) {
	linttest.Run(t, lint.EnumSwitch, "testdata/src/enumswitch")
}

func TestPanicFree(t *testing.T) {
	linttest.Run(t, lint.PanicFree, "testdata/src/panicfree")
}

func TestTimeMix(t *testing.T) {
	linttest.Run(t, lint.TimeMix, "testdata/src/timemix")
}

func TestAPILeak(t *testing.T) {
	linttest.Run(t, lint.APILeak, "testdata/src/apileak")
}

func TestIgnoreReason(t *testing.T) {
	linttest.Run(t, lint.IgnoreReason, "testdata/src/ignorereason")
}

func TestLoopOwner(t *testing.T) {
	linttest.Run(t, lint.LoopOwner, "testdata/src/loopowner")
}

func TestRowWrite(t *testing.T) {
	linttest.Run(t, lint.RowWrite, "testdata/src/rowwrite")
}
