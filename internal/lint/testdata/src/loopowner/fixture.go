// Package loopownertest exercises the loopowner analyzer: accesses to
// //pinlint:owned fields from goroutines, goroutine-reachable functions,
// functions outside the owner's call tree and exported functions other
// than the owner are positives; the owner itself (exported here), its
// unexported call tree and constructors are negatives.
package loopownertest

type loop struct {
	//pinlint:owned Run
	state int
	gauge int //pinlint:owned Run
	other int // unannotated: never checked
}

// newLoop is a constructor (its result mentions *loop), so initializing
// the owned fields before the loop starts is fine.
func newLoop() *loop {
	l := &loop{}
	l.state = 1
	l.gauge = 2
	return l
}

// Run is the owner: direct access and access through callees are fine.
func (l *loop) Run() {
	l.state++
	l.step()
	go func() {
		l.gauge = 0 // want `accessed inside a go statement`
	}()
}

// step is in Run's call tree.
func (l *loop) step() {
	l.state += l.other
	_ = l.Gauge()
}

// Gauge is in Run's call tree, but it is exported: other packages call it
// from their own goroutines too.
func (l *loop) Gauge() int {
	return l.gauge // want `accessed in exported Gauge`
}

// Peek is neither the owner, reachable from it, nor a constructor.
func (l *loop) Peek() int {
	return l.state // want `outside the owner's call tree`
}

func spawnHelper(l *loop) {
	done := make(chan struct{})
	go func() {
		leak(l)
		close(done)
	}()
	<-done
}

// leak is reachable from a go statement, so even a read races the owner.
func leak(l *loop) {
	_ = l.gauge // want `reachable from a go statement`
}
