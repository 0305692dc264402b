package pinatubo

import (
	"context"
	"fmt"
)

// Option configures one Apply, Batch, Plan or batch-window call. Options
// follow the functional-options pattern: the zero call is the legacy
// default (FIFO arbitration, background context), and each option
// overrides one knob without widening the signature.
type Option func(*callOpts)

// callOpts is the resolved per-call configuration.
type callOpts struct {
	arb Arbiter
	ctx context.Context
}

// WithArbiter selects the channel arbitration policy the call schedules
// under. The default is ArbFIFO, the deterministic legacy policy.
func WithArbiter(arb Arbiter) Option {
	return func(o *callOpts) { o.arb = arb }
}

// WithContext attaches a cancellation context to the call. Apply observes
// cancellation between row chunks: the completed prefix of row batches
// stays applied (exactly as if a shorter vector had been processed) and
// the call returns ctx.Err(). A Batch (or a batch window) is
// all-or-nothing: observing cancellation it stops without merging any
// partial shard state, the System is left exactly as if the cancelled
// batch had never started, and the call returns ctx.Err(). The one
// exception is a fault-injected batch that retired a row mid-run and fell
// back to the sequential replay on the live system — there cancellation
// stops between ops and the completed prefix remains applied, exactly as
// a sequence of Apply calls interrupted at that point. Plan runs entirely
// on sandboxed copies, so a cancelled Plan never has side effects.
func WithContext(ctx context.Context) Option {
	return func(o *callOpts) { o.ctx = ctx }
}

// resolveOpts folds a call's options over the defaults. A nil Option is
// a caller bug (usually a conditional that forgot its else branch), so
// it is rejected with an error instead of being silently skipped.
//
// The options write through a pointer that escapes to the heap, so the
// zero-option call every hot loop makes returns the defaults without
// taking it.
func resolveOpts(opts []Option) (callOpts, error) {
	if len(opts) == 0 {
		return callOpts{arb: ArbFIFO, ctx: context.Background()}, nil
	}
	o := &callOpts{arb: ArbFIFO}
	for i, f := range opts {
		if f == nil {
			return callOpts{}, fmt.Errorf("pinatubo: option %d of %d is nil", i, len(opts))
		}
		f(o)
	}
	if o.ctx == nil {
		o.ctx = context.Background()
	}
	return *o, nil
}
