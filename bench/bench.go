// Package bench is the repository's performance benchmark: four fixed-work
// workloads driven through the public entry points — System.Apply, the
// pipelined BatchBuilder/Start/Wait windows, and an in-process
// internal/serve server — each timed end to end on the host clock, with
// simulated time and energy beside it, and every output checked against a
// word-level reference model (ref.go).
//
// A run is untraced: the tracer is never created, so the end-to-end
// numbers carry no tracing cost. With Options.Trace a second, traced pass
// times every call into a layer's public functions from the benchmark's
// own code and derives the per-layer breakdown from those spans, the
// simulator's counters and replays of the run's kernel and ECC work.
//
// Op counts and seeds are fixed, so simulated metrics and counts repeat
// exactly for a seed and scale; only host-clock metrics vary run to run.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"pinatubo"
)

// Options configures one benchmark run.
type Options struct {
	// Seed selects the generated inputs; the program under test receives
	// only those inputs.
	Seed int64
	// Scale multiplies every workload's fixed op count (1 is about ten
	// seconds of measured work per workload on a 2-CPU host).
	Scale float64
	// Trace adds the traced pass and its per-layer metrics.
	Trace bool
	// Out is the directory trace and report files go to ("" writes none).
	Out string
}

// Metric is one named measurement. Value is NaN when the run had too few
// samples for it (a p99 needs 1000). N counts the samples or repetitions
// behind a median or percentile and is 0 for other metrics; Segments is
// how many segments of the measured phase the best was taken from.
type Metric struct {
	Name     string
	Unit     string
	Value    float64
	N        int
	Segments int
}

// Report is one workload's result.
type Report struct {
	Workload string
	Seed     int64
	Scale    float64
	// Correct is false when any output disagreed with the reference
	// model; Mismatches spells out the first few.
	Correct    bool
	Mismatches []string
	// Attempted counts public calls and requests issued; Failed those that
	// returned an error or were shed.
	Attempted, Failed int64
	// EndToEnd holds the untraced pass's metrics; Layers the traced pass's
	// per-layer metrics (nil without Options.Trace) and Spans its span
	// profile.
	EndToEnd []Metric
	Layers   []Metric
	Spans    []SpanRow
	// Wall is the host time the whole run took, both passes included.
	Wall time.Duration
}

// SpanRow is one span class of the traced pass.
type SpanRow struct {
	Name           string
	Count          int64
	TotalMS        float64
	SelfMS         float64
	ShareOfMeasure float64 // self time over the measured phase's wall time
}

// Workload is one fixed-work traffic mix.
type Workload struct {
	Name string
	Why  string
	run  func(*pass) error
	// spans estimates the traced pass's span count at scale 1, so the
	// trace buffer is allocated once up front and the pass can be shrunk
	// to maxSpans.
	spans int
}

// maxSpans bounds a traced pass: a workload whose spans at the run's
// scale would exceed it runs its traced pass at a smaller scale (the
// per-layer metrics are per call, per op or shares, so they compare
// across scales), keeping the buffer and the trace file to tens of MB.
const maxSpans = 400_000

// Workloads lists the benchmark's workloads in run order.
var Workloads = []Workload{
	{Name: "bitmap-apply", run: runBitmapApply, spans: 7 * bitmapStream,
		Why: "Fastbit range queries through sequential Apply on resident bitmaps: the program-cache hit path, sense kernel and OR scheduler"},
	{Name: "frontier-churn", run: runFrontierChurn, spans: 14 * churnIters,
		Why: "BFS-frontier alloc/write/op/read/free on narrow vectors: every Free empties the program cache, so each op lowers afresh beside host traffic"},
	{Name: "window-ecc", run: runWindowECC, spans: 22 * eccWindows,
		Why: "pipelined 16-op batch windows under SECDED and injected sense flips: deep-copy sandboxes, shard goroutines, merge and the ECC rung"},
	{Name: "serve-open", run: runServeOpen, spans: serveSpans,
		Why: "open-loop Poisson clients on an in-process pinatubod server: protocol, admission, fair share, replanning and small windows"},
}

// Lookup returns the workload with the given name.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// spec names a metric and its unit.
type spec struct {
	name, unit string
}

// endToEndSpecs lists the end-to-end metrics every workload reports in
// the one-line JSON result, the ones BENCHMARK.json bounds. The report
// prints more (lat_p99_us, fail_frac and the workload's own): the p99 is
// left out of the bounded set because on serve-open it is set by the
// replan stalls, whose length varied by more than the largest allowed
// bound from run to run.
var endToEndSpecs = []spec{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"lat_p50_us", "us"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"heap_mib", "MiB"},
}

// layerSpecs lists every per-layer metric in print order. The json ones
// are reported by every workload (a layer a workload never enters reads
// 0, which only counts and ratios may do) and make up the traced one-line
// result; the rest belong to some workloads only and print beside them.
var layerSpecs = []struct {
	spec
	json bool
}{
	{spec{"apply.or.us", "us"}, false},
	{spec{"apply.and.us", "us"}, false},
	{spec{"apply.xor.us", "us"}, false},
	{spec{"apply.not.us", "us"}, false},
	{spec{"apply.popcount.us", "us"}, false},
	{spec{"apply.hit.us", "us"}, false},
	{spec{"apply.miss.us", "us"}, false},
	{spec{"host.write.us", "us"}, false},
	{spec{"host.read.us", "us"}, false},
	{spec{"host.alloc.us", "us"}, false},
	{spec{"host.free.us", "us"}, false},
	{spec{"cmdstream.hit_rate", "ratio"}, true},
	{spec{"cmdstream.lookups_per_op", "count/op"}, true},
	{spec{"kernel.us_per_op", "us"}, true},
	{spec{"kernel.share", "ratio"}, true},
	{spec{"pimrt.requests_per_op", "count/op"}, true},
	{spec{"pimrt.verifies_per_op", "count/op"}, true},
	{spec{"pimrt.retries_per_op", "count/op"}, true},
	{spec{"pimrt.depth_reductions", "count"}, true},
	{spec{"pimrt.fallbacks", "count"}, true},
	{spec{"ecc.decodes_per_op", "count/op"}, true},
	{spec{"ecc.corrected_bits_per_op", "bit/op"}, true},
	{spec{"ecc.encode_row_us", "us"}, true},
	{spec{"ecc.decode_row_us", "us"}, true},
	{spec{"fault.flips_per_op", "bit/op"}, true},
	{spec{"hw.activations_per_op", "count/op"}, true},
	{spec{"hw.sense_steps_per_op", "count/op"}, true},
	{spec{"hw.writebacks_per_op", "count/op"}, true},
	{spec{"hw.bus_bits_per_op", "bit/op"}, true},
	{spec{"hw.intra_frac", "ratio"}, true},
	{spec{"hw.inter_sub_frac", "ratio"}, true},
	{spec{"hw.inter_bank_frac", "ratio"}, true},
	{spec{"sim_ns_per_op", "ns"}, false},
	{spec{"sim_pj_per_bit", "pJ/bit"}, true},
	{spec{"batch.add.us", "us"}, false},
	{spec{"batch.start.us", "us"}, false},
	{spec{"batch.exec.us", "us"}, false},
	{spec{"batch.wait.us", "us"}, false},
	{spec{"batch.shards_per_window", "count"}, true},
	{spec{"batch.pool_reuse_rate", "ratio"}, true},
	{spec{"chansim.speedup", "ratio"}, true},
	{spec{"chansim.makespan_ns", "ns"}, false},
	{spec{"serve.windows", "count"}, false},
	{spec{"serve.ops_per_window", "count"}, true},
	{spec{"serve.window_cap", "count"}, false},
	{spec{"serve.replans", "count"}, true},
	{spec{"serve.shed", "count"}, true},
	{spec{"serve.host_ops", "count"}, false},
	{spec{"serve.window_sim_p99_ns", "ns"}, false},
	{spec{"serve.replan_ms", "ms"}, true},
	{spec{"serve.replan_share", "ratio"}, true},
	{spec{"client.gen_late_p99_us", "us"}, false},
	{spec{"client.backlog_end", "count"}, false},
	{spec{"gc.cycles", "count"}, true},
	{spec{"gc.pause_ms", "ms"}, true},
	{spec{"trace.unattributed_frac", "ratio"}, true},
	{spec{"trace.overhead_frac", "ratio"}, true},
}

// setupReps is how many times a workload sets up per pass; setup_s is the
// median, and the last set-up's state runs the measured phase.
const setupReps = 9

// The measured phase is cut into numSegments segments of equal sample
// counts. Interference from other work on the host only ever slows a
// segment down, so the two timings a change is judged on take the least
// disturbed segment: ops_per_s is the fastest segment's throughput and
// lat_p50_us the lowest segment median. A segment needs
// minSegmentSamples samples for its median to have 10 beyond it.
// lat_p99_us, which is meant to show every stall the tail sees, is the p99
// of the whole phase.
const (
	numSegments       = 16
	minSegmentSamples = 20
)

// mark is where the current segment of the measured phase began.
type mark struct {
	t     time.Time
	calls int64
}

// pass is one execution of a workload, untraced (tr nil) or traced.
type pass struct {
	opts Options
	tr   *tracer
	// root is the span calls are recorded under: the current set-up
	// repetition or the measured phase (-1 untraced).
	root int32
	// measuring is set during the measured phase.
	measuring bool

	check             checker
	attempted, failed atomic.Int64

	setup []float64 // seconds per set-up repetition
	// lat holds the measured phase's latency samples (µs) in the order
	// taken; cuts ends each segment (sample indices, the last len(lat)) and
	// rates holds each segment's public calls per second.
	lat      []float64
	cuts     []int
	rates    []float64
	segEvery int
	seg      mark
	// held is the bytes of other benchmark-owned buffers live at the end of
	// the measured phase, left out of heap_mib with the sample buffer.
	held     int
	calls    int64   // public calls (or requests) in the measured phase
	wall     float64 // measured phase, seconds
	allocs   uint64
	bytes    uint64
	heapMiB  float64
	gcCycles uint32
	gcPause  uint64 // ns
	mix      kernelMix

	// Workload-specific results: end-to-end extras, per-layer values by
	// name, and the host-time figure the tracing overhead is judged on —
	// wall time per call for the closed loops, the median latency for the
	// open one.
	extra   []Metric
	layers  map[string]float64
	primary float64
}

func newPass(o Options, tr *tracer) *pass {
	return &pass{opts: o, tr: tr, root: -1, mix: kernelMix{}, layers: map[string]float64{}}
}

// scaled is a fixed op count at the run's scale (at least 1).
func (p *pass) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*p.opts.Scale)))
}

// begin opens a span under the current root; a no-op untraced.
func (p *pass) begin(name spanName, req int64) int32 {
	if p.tr == nil {
		return -1
	}
	return p.tr.begin(name, p.root, req)
}

// end closes a span opened by begin.
func (p *pass) end(id int32) {
	if p.tr != nil {
		p.tr.end(id, flagNone)
	}
}

// call makes one public call: a span when traced — tagged hit or miss
// from the program-cache counters when sys is non-nil — and the
// attempted/failed ledger.
func (p *pass) call(name spanName, req int64, sys *pinatubo.System, fn func() error) error {
	var id int32 = -1
	var before pinatubo.PerfStats
	if p.tr != nil {
		id = p.tr.begin(name, p.root, req)
		if sys != nil {
			before = sys.PerfStats()
		}
	}
	err := fn()
	if p.tr != nil {
		flag := flagNone
		if sys != nil {
			after := sys.PerfStats()
			switch {
			case after.ProgramCacheMisses > before.ProgramCacheMisses:
				flag = flagMiss
			case after.ProgramCacheHits > before.ProgramCacheHits:
				flag = flagHit
			}
		}
		p.tr.end(id, flag)
	}
	p.attempted.Add(1)
	if err != nil {
		p.failed.Add(1)
	}
	return err
}

// applySpan maps an op onto its span name.
func applySpan(op pinatubo.Op) spanName {
	switch op {
	case pinatubo.OpOr:
		return spanApplyOr
	case pinatubo.OpAnd:
		return spanApplyAnd
	case pinatubo.OpXor:
		return spanApplyXor
	case pinatubo.OpNot:
		return spanApplyNot
	case pinatubo.OpPopcount:
		return spanApplyPopcount
	default: // no workload issues OpCopy
		return spanApplyOr
	}
}

// apply issues one timed Apply and records its kernel shape.
func (p *pass) apply(sys *pinatubo.System, op pinatubo.Op, dst *pinatubo.BitVector, srcs []*pinatubo.BitVector, req int64) (pinatubo.Result, error) {
	var res pinatubo.Result
	err := p.call(applySpan(op), req, sys, func() error {
		var err error
		res, err = sys.Apply(op, dst, srcs)
		return err
	})
	if p.measuring {
		p.mix.add(op, len(srcs), dst.Len())
	}
	return res, err
}

// timeSetup runs fn setupReps times, timing each repetition.
func (p *pass) timeSetup(fn func() error) error {
	for i := 0; i < setupReps; i++ {
		if p.tr != nil {
			p.root = p.tr.begin(spanSetup, -1, int64(i))
		}
		start := clock()
		if err := fn(); err != nil {
			return err
		}
		p.setup = append(p.setup, since(start).Seconds())
		if p.tr != nil {
			p.tr.end(p.root, flagNone)
		}
	}
	p.root = -1
	return nil
}

// phase is the state a measured phase started from.
type phase struct {
	start time.Time
	ms    runtime.MemStats
}

// startPhase begins the measured phase on a freshly collected heap.
// samples is the latency samples the phase will take, allocated up front
// so the sample buffer adds nothing to the phase's allocations.
func (p *pass) startPhase(samples int) phase {
	p.lat = make([]float64, 0, samples)
	segs := min(numSegments, max(1, samples/minSegmentSamples))
	p.segEvery = max(1, samples/segs)
	p.cuts, p.rates = make([]int, 0, segs+1), make([]float64, 0, segs+1)
	runtime.GC()
	var ph phase
	runtime.ReadMemStats(&ph.ms)
	if p.tr != nil {
		p.root = p.tr.begin(spanRun, -1, 0)
	}
	p.measuring = true
	ph.start = clock()
	p.seg = mark{t: ph.start, calls: p.attempted.Load()}
	return ph
}

// sample records one latency sample, closing the segment it completes.
func (p *pass) sample(us float64) {
	p.lat = append(p.lat, us)
	if len(p.lat)%p.segEvery == 0 {
		p.cut()
	}
}

// cut ends the current segment at the latest sample.
func (p *pass) cut() {
	now, calls := clock(), p.attempted.Load()
	p.cuts = append(p.cuts, len(p.lat))
	p.rates = append(p.rates, ratio(float64(calls-p.seg.calls), now.Sub(p.seg.t).Seconds()))
	p.seg = mark{t: now, calls: calls}
}

// endPhase closes the measured phase after calls public calls: wall time,
// allocation and GC deltas, then the live heap after a collection, less
// the benchmark's own sample buffers.
func (p *pass) endPhase(ph phase, calls int64) {
	p.wall = since(ph.start).Seconds()
	p.measuring = false
	// A short tail joins the last segment; a long one is a segment.
	switch last := len(p.cuts) - 1; {
	case last >= 0 && len(p.lat)-p.cuts[last] < p.segEvery/2:
		p.cuts[last] = len(p.lat)
	case len(p.lat) > 0 && (last < 0 || p.cuts[last] < len(p.lat)):
		p.cut()
	}
	if p.tr != nil {
		p.tr.end(p.root, flagNone)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.calls = calls
	p.allocs = ms.Mallocs - ph.ms.Mallocs
	p.bytes = ms.TotalAlloc - ph.ms.TotalAlloc
	p.gcCycles = ms.NumGC - ph.ms.NumGC
	p.gcPause = ms.PauseTotalNs - ph.ms.PauseTotalNs
	// Two collections: the first leaves sync.Pool contents in the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapMiB = (float64(ms.HeapAlloc) - 8*float64(cap(p.lat)) - float64(p.held)) / (1 << 20)
}

// cutEvenly splits samples that were taken out of order (the serve
// client's, sorted afterwards) into equal segments.
func (p *pass) cutEvenly() {
	segs := min(numSegments, max(1, len(p.lat)/minSegmentSamples))
	p.cuts = p.cuts[:0]
	for i := 1; i <= segs; i++ {
		p.cuts = append(p.cuts, i*len(p.lat)/segs)
	}
}

// bestMedian is the lowest of the segments' medians and the segment
// count; NaN when a segment is too small for its median.
func bestMedian(lat []float64, cuts []int) (float64, int) {
	best, lo := math.NaN(), 0
	for _, hi := range cuts {
		seg := append([]float64(nil), lat[lo:hi]...)
		sort.Float64s(seg)
		v, err := percentile(seg, 0.5)
		if err != nil {
			return math.NaN(), len(cuts)
		}
		if !(v >= best) {
			best = v
		}
		lo = hi
	}
	return best, len(cuts)
}

// wholePercentile is the nearest-rank p-quantile of all samples, NaN
// when there are too few.
func wholePercentile(lat []float64, p float64) float64 {
	all := append([]float64(nil), lat...)
	sort.Float64s(all)
	v, err := percentile(all, p)
	if err != nil {
		return math.NaN()
	}
	return v
}

// endToEnd assembles the untraced pass's end-to-end metrics.
func (p *pass) endToEnd() []Metric {
	calls := float64(p.calls)
	ops := Metric{Name: "ops_per_s", Unit: "ops/s", Value: ratio(calls, p.wall)}
	if len(p.rates) > 0 {
		ops.Value, ops.Segments = slices.Max(p.rates), len(p.rates)
	}
	p50, segs := bestMedian(p.lat, p.cuts)
	out := []Metric{
		{Name: "setup_s", Unit: "s", Value: median(p.setup), N: len(p.setup)},
		ops,
		{Name: "lat_p50_us", Unit: "us", Value: p50, N: len(p.lat), Segments: segs},
		{Name: "lat_p99_us", Unit: "us", Value: wholePercentile(p.lat, 0.99), N: len(p.lat)},
	}
	out = append(out,
		Metric{Name: "allocs_per_op", Unit: "count", Value: ratio(float64(p.allocs), calls)},
		Metric{Name: "bytes_per_op", Unit: "B", Value: ratio(float64(p.bytes), calls)},
		Metric{Name: "heap_mib", Unit: "MiB", Value: p.heapMiB},
		Metric{Name: "fail_frac", Unit: "ratio", Value: ratio(float64(p.failed.Load()), float64(p.attempted.Load()))},
	)
	return append(out, p.extra...)
}

// layerMetrics assembles the traced pass's per-layer metrics, in
// layerSpecs order. base is the untraced pass of the same run.
func (p *pass) layerMetrics(base *pass, prof spanProfile) ([]Metric, error) {
	v := p.layers
	// Calls timed from outside report their mean duration, named after
	// their span: apply.or → apply.or.us.
	for sn := spanApplyOr; sn <= spanBatchWait; sn++ {
		if st := prof.byName[sn]; st.count > 0 {
			v[sn.String()+".us"] = st.meanUS()
		}
	}
	if prof.hit.count > 0 {
		v["apply.hit.us"] = prof.hit.meanUS()
	}
	if prof.miss.count > 0 {
		v["apply.miss.us"] = prof.miss.meanUS()
	}
	usPerOp, kernelSec, err := replayKernel(p.mix, p.opts.Seed)
	if err != nil {
		return nil, err
	}
	v["kernel.us_per_op"] = usPerOp
	v["kernel.share"] = ratio(kernelSec, p.wall)
	v["gc.cycles"] = float64(p.gcCycles)
	v["gc.pause_ms"] = float64(p.gcPause) / 1e6
	v["trace.unattributed_frac"] = prof.unattributed
	v["trace.overhead_frac"] = ratio(p.primary-base.primary, base.primary)

	var out []Metric
	for _, s := range layerSpecs {
		x, ok := v[s.name]
		if !ok && !s.json {
			continue
		}
		out = append(out, Metric{Name: s.name, Unit: s.unit, Value: x})
	}
	return out, nil
}

// spanRows renders the span profile, largest self time first.
func spanRows(prof spanProfile, wall float64) []SpanRow {
	var rows []SpanRow
	for n, st := range prof.byName {
		if st.count == 0 {
			continue
		}
		rows = append(rows, SpanRow{
			Name:           spanName(n).String(),
			Count:          st.count,
			TotalMS:        float64(st.total) / 1e6,
			SelfMS:         float64(st.self) / 1e6,
			ShareOfMeasure: ratio(float64(st.self)/1e9, wall),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows
}

// Run executes one workload: the untraced pass for the end-to-end
// metrics, then with Options.Trace the traced pass for the per-layer
// ones. An output that disagrees with the reference model makes the
// report incorrect; it is not an error.
func Run(w Workload, o Options) (Report, error) {
	if !(o.Scale > 0) {
		return Report{}, fmt.Errorf("bench: scale %g is not positive", o.Scale)
	}
	start := clock()
	base := newPass(o, nil)
	if err := w.run(base); err != nil {
		return Report{}, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	rep := Report{Workload: w.Name, Seed: o.Seed, Scale: o.Scale, EndToEnd: base.endToEnd()}
	passes := []*pass{base}
	if o.Trace {
		to := o
		spans := float64(w.spans) * o.Scale
		if spans > maxSpans {
			to.Scale *= maxSpans / spans
			spans = maxSpans
		}
		tp := newPass(to, newTracer(int(spans)+1<<16))
		if err := w.run(tp); err != nil {
			return Report{}, fmt.Errorf("bench: %s (traced): %w", w.Name, err)
		}
		passes = append(passes, tp)
		prof := profile(tp.tr.spans, tp.root) // the measured phase's span
		layers, err := tp.layerMetrics(base, prof)
		if err != nil {
			return Report{}, fmt.Errorf("bench: %s: %w", w.Name, err)
		}
		rep.Layers = layers
		rep.Spans = spanRows(prof, tp.wall)
		if o.Out != "" {
			if err := writeTrace(o.Out, w.Name, tp.tr.spans); err != nil {
				return Report{}, err
			}
		}
	}
	rep.Correct = true
	for _, p := range passes {
		rep.Attempted += p.attempted.Load()
		rep.Failed += p.failed.Load()
		if p.check.wrong > 0 {
			rep.Correct = false
			rep.Mismatches = append(rep.Mismatches, p.check.notes...)
		}
	}
	rep.Wall = since(start)
	if o.Out != "" {
		if err := writeReport(o.Out, rep); err != nil {
			return Report{}, err
		}
	}
	return rep, nil
}

// jsonValue is one metric in the result line.
type jsonValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// ResultLine renders the one-line JSON result: the end-to-end metrics
// every workload reports, or with traced set the per-layer ones. A metric
// the run had too few samples for encodes as null.
func (r Report) ResultLine(traced bool) ([]byte, error) {
	src := r.EndToEnd
	names := make([]string, 0, len(layerSpecs))
	if traced {
		src = r.Layers
		for _, s := range layerSpecs {
			if s.json {
				names = append(names, s.name)
			}
		}
	} else {
		for _, s := range endToEndSpecs {
			names = append(names, s.name)
		}
	}
	byName := make(map[string]Metric, len(src))
	for _, m := range src {
		byName[m.Name] = m
	}
	metrics := make(map[string]jsonValue, len(names))
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("bench: %s reported no %s", r.Workload, n)
		}
		jv := jsonValue{Unit: m.Unit}
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			x := m.Value
			jv.Value = &x
		}
		metrics[n] = jv
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
}

// writeReport stores the full report as dir/report-<workload>.json, the
// file an A/B comparison reads.
func writeReport(dir string, r Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench: report directory: %w", err)
	}
	type jm struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Value *float64 `json:"value"`
		N     int      `json:"n,omitempty"`
	}
	conv := func(ms []Metric) []jm {
		out := make([]jm, len(ms))
		for i, m := range ms {
			out[i] = jm{Name: m.Name, Unit: m.Unit, N: m.N}
			if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
				x := m.Value
				out[i].Value = &x
			}
		}
		return out
	}
	data, err := json.MarshalIndent(struct {
		Workload   string    `json:"workload"`
		Seed       int64     `json:"seed"`
		Scale      float64   `json:"scale"`
		Correct    bool      `json:"correct"`
		Mismatches []string  `json:"mismatches,omitempty"`
		Attempted  int64     `json:"attempted"`
		Failed     int64     `json:"failed"`
		EndToEnd   []jm      `json:"end_to_end"`
		Layers     []jm      `json:"per_layer,omitempty"`
		Spans      []SpanRow `json:"spans,omitempty"`
		WallS      float64   `json:"wall_s"`
	}{r.Workload, r.Seed, r.Scale, r.Correct, r.Mismatches, r.Attempted, r.Failed,
		conv(r.EndToEnd), conv(r.Layers), r.Spans, r.Wall.Seconds()}, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding report: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "report-"+r.Workload+".json"), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing report: %w", err)
	}
	return nil
}
