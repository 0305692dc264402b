// Package ignorereasontest exercises the ignorereason analyzer. The
// positives embed their `// want` expectations inside the directive
// comment itself: the nested `//` both ends the directive's content (so
// the reason really is empty) and carries the expectation the harness
// matches. The suppression-proof property is asserted the same way — a
// reasonless directive naming ignorereason (or all) is still reported —
// and so is every name in a directive that is not an analyzer.
package ignorereasontest

func covered(a, b float64) bool {
	//pinlint:ignore floateq tie-break on identical sampled times is deliberate
	return a == b
}

func noReason(a, b float64) bool {
	//pinlint:ignore floateq // want `has no reason`
	return a == b
}

func selfSuppressing(a, b float64) bool {
	//pinlint:ignore ignorereason // want `has no reason`
	return a == b
}

func allSuppressing(a, b float64) bool {
	//pinlint:ignore all // want `has no reason`
	return a == b
}

func coveredList(a, b float64) bool {
	//pinlint:ignore floateq,all every name in the list is an analyzer or all
	return a == b
}

func deletedName(a, b float64) bool {
	//pinlint:ignore joinall the named analyzer is not in the suite // want `"joinall", which is not an analyzer`
	return a == b
}

func deletedNameInList(a, b float64) bool {
	//pinlint:ignore floateq,lockpair one name of the list is not an analyzer // want `"lockpair", which is not an analyzer`
	return a == b
}

// prose that merely mentions a pinlint:ignore directive is not one.
func mentioned() {}
