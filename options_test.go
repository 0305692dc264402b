package pinatubo

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestOptionsExplicitDefaultEquivalence pins that spelling the defaults
// out as options changes nothing: a bare call and one passing
// WithArbiter(ArbFIFO) + WithContext(Background) produce identical
// reports and schedules.
func TestOptionsExplicitDefaultEquivalence(t *testing.T) {
	cfg := Config{Tech: PCM, Geometry: spreadGeometry()}
	bare, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := bare.Plan(OpOr, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spelled.Plan(OpOr, 4, 0, WithArbiter(ArbFIFO), WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Plan bare %+v != with explicit defaults %+v", a, b)
	}

	opsA := buildBatchOps(t, bare, 4096)
	opsB := buildBatchOps(t, spelled, 4096)
	ra, err := bare.Batch(opsA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := spelled.Batch(opsB, WithArbiter(ArbFIFO), WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	// Results reference distinct vectors, but the schedule numbers
	// must be identical.
	if ra.Makespan != rb.Makespan || ra.Sequential != rb.Sequential ||
		ra.Shards != rb.Shards || ra.Arb != rb.Arb {
		t.Errorf("Batch bare %+v != with explicit defaults %+v", ra, rb)
	}
}

// TestOptionsDefaults checks the zero-option call is the legacy default:
// FIFO arbitration, background context, and WithContext(nil) restored to
// the background context.
func TestOptionsDefaults(t *testing.T) {
	o, err := resolveOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.arb != ArbFIFO {
		t.Errorf("default arbiter %v, want fifo", o.arb)
	}
	if o.ctx == nil {
		t.Error("default context is nil")
	}
	o, err = resolveOpts([]Option{WithContext(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if o.ctx == nil {
		t.Error("WithContext(nil) left a nil context")
	}
}

// TestNilOptionRejected pins the nil-Option contract: a nil in the option
// list is a caller bug (typically an uninitialised Option variable) and
// every options-taking entry point must reject it with a clear error
// instead of panicking or silently skipping it.
func TestNilOptionRejected(t *testing.T) {
	if _, err := resolveOpts([]Option{WithArbiter(ArbFIFO), nil}); err == nil {
		t.Fatal("resolveOpts accepted a nil option")
	} else if want := "option 1 of 2"; !strings.Contains(err.Error(), want) {
		t.Errorf("nil-option error %q does not locate the option (%q)", err, want)
	}

	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := sys.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Stats()
	if _, err := sys.Apply(OpNot, dst, []*BitVector{a}, nil); err == nil {
		t.Error("Apply accepted a nil option")
	}
	if _, err := sys.Batch([]BatchOp{{Op: OpNot, Dst: dst, Srcs: []*BitVector{a}}}, nil); err == nil {
		t.Error("Batch accepted a nil option")
	}
	if _, err := sys.Plan(OpOr, 4, 0, nil); err == nil {
		t.Error("Plan accepted a nil option")
	}
	if _, err := sys.NewBatchBuilder().Start(nil); err == nil {
		t.Error("BatchBuilder.Start accepted a nil option")
	}
	if after := sys.Stats(); !reflect.DeepEqual(before, after) {
		t.Errorf("nil-option rejection touched the ledger: %+v -> %+v", before, after)
	}
}

// TestPlanCancellation checks a cancelled context aborts Plan with the
// context's error and, since planning is fully sandboxed, leaves the
// live system's ledger untouched.
func TestPlanCancellation(t *testing.T) {
	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Plan(OpOr, 8, 0, WithContext(ctx)); err != context.Canceled {
		t.Fatalf("Plan with cancelled ctx: err=%v, want context.Canceled", err)
	}
	if after := sys.Stats(); !reflect.DeepEqual(before, after) {
		t.Errorf("cancelled Plan touched the ledger: %+v -> %+v", before, after)
	}
}

// TestBatchContextCancelledUpfront checks Batch rejects an
// already-cancelled context before touching any operand.
func TestBatchContextCancelledUpfront(t *testing.T) {
	sys, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	ops := buildBatchOps(t, sys, 4096)
	twin, err := New(Config{Tech: PCM, Geometry: spreadGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	buildBatchOps(t, twin, 4096)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Batch(ops, WithContext(ctx)); err != context.Canceled {
		t.Fatalf("Batch with cancelled ctx: err=%v, want context.Canceled", err)
	}
	if a, b := sys.Stats(), twin.Stats(); !reflect.DeepEqual(a, b) {
		t.Errorf("cancelled Batch touched the ledger: %+v != %+v", a, b)
	}
}
