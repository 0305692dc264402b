package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// clock reads the host wall clock. It is the benchmark's only clock read:
// every host-time metric and span is a difference of two clock() values.
func clock() time.Time {
	//pinlint:ignore detrand host wall time is what the benchmark measures; no simulated result reads it
	return time.Now()
}

// since is the wall time elapsed from t.
func since(t time.Time) time.Duration { return clock().Sub(t) }

// micros expresses d in microseconds, the unit of every latency sample.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanName is a layer boundary the benchmark times from outside.
type spanName uint8

const (
	spanSetup spanName = iota // one set-up repetition
	spanRun                   // the measured phase, root of its spans
	spanApplyOr
	spanApplyAnd
	spanApplyXor
	spanApplyNot
	spanApplyPopcount
	spanHostWrite
	spanHostRead
	spanHostAlloc
	spanHostFree
	spanBatchAdd
	spanBatchStart
	spanBatchExec
	spanBatchWait
	spanRef        // reference-model work and output checks
	spanClientSend // serve: build, model and send one request
	spanClientIdle // serve: the generator sleeping until the next due time
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"setup", "run",
	"apply.or", "apply.and", "apply.xor", "apply.not", "apply.popcount",
	"host.write", "host.read", "host.alloc", "host.free",
	"batch.add", "batch.start", "batch.exec", "batch.wait",
	"ref", "client.send", "client.idle",
}

func (n spanName) String() string { return spanNames[n] }

// Span flags: how the program cache answered an Apply.
const (
	flagNone uint8 = iota
	flagHit
	flagMiss
)

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// req groups the spans of one query, iteration, window or request.
type span struct {
	name       spanName
	flag       uint8
	parent     int32
	req        int64
	start, end int64
}

// tracer keeps spans in a preallocated in-memory buffer. Only the
// goroutine driving the workload records spans; the untraced pass never
// creates a tracer.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: clock(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name spanName, parent int32, req int64) int32 {
	now := t.now()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: now, end: now})
	return id
}

// end closes span id, tagging it with flag.
func (t *tracer) end(id int32, flag uint8) {
	t.spans[id].end = t.now()
	t.spans[id].flag = flag
}

// record adds a span whose bounds were taken elsewhere.
func (t *tracer) record(name spanName, parent int32, req int64, start, end time.Time) {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
}

// selfTimes returns every span's duration minus the part of its interval
// its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		if len(children[i]) == 0 {
			self[i] = s.end - s.start
			continue
		}
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.start
		for _, v := range ivs {
			if v.lo < reach {
				v.lo = reach
			}
			if v.hi > v.lo {
				covered += v.hi - v.lo
				reach = v.hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count       int64
	total, self int64 // ns
}

// spanProfile is the per-layer breakdown of one traced pass.
type spanProfile struct {
	byName       [numSpanNames]spanStat
	hit, miss    spanStat // Apply spans by program-cache outcome
	unattributed float64  // self share of the measured-phase root
}

// profile aggregates the spans by name and measures how much of the run
// root no child span accounts for.
func profile(spans []span, root int32) spanProfile {
	self := selfTimes(spans)
	var p spanProfile
	for i, s := range spans {
		d := s.end - s.start
		st := &p.byName[s.name]
		st.count++
		st.total += d
		st.self += self[i]
		switch s.flag {
		case flagHit:
			p.hit.count++
			p.hit.total += d
		case flagMiss:
			p.miss.count++
			p.miss.total += d
		}
	}
	if root >= 0 {
		if d := spans[root].end - spans[root].start; d > 0 {
			p.unattributed = float64(self[root]) / float64(d)
		}
	}
	return p
}

// meanUS is a span class's mean duration in microseconds.
func (s spanStat) meanUS() float64 { return ratio(float64(s.total)/1e3, float64(s.count)) }

// writeTrace stores the spans as JSON in dir/trace-<workload>.json: a
// name table plus one [name, id, parent, start_ns, end_ns, req, flag]
// array per span.
func writeTrace(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench: trace directory: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("bench: closing trace file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"fields\":[\"name\",\"id\",\"parent\",\"start_ns\",\"end_ns\",\"req\",\"flag\"],\"names\":[", workload)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"spans\":[")
	var buf []byte
	for i, s := range spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		for j, v := range [...]int64{int64(s.name), int64(i), int64(s.parent), s.start, s.end, s.req, int64(s.flag)} {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("bench: writing trace file: %w", err)
	}
	return nil
}
