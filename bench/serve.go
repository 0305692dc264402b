package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"pinatubo"
	"pinatubo/internal/bitvec"
	"pinatubo/internal/serve"
)

// serve-open: open-loop Poisson clients against an in-process server
// configured as `pinatubod -listen` configures it.
const (
	serveTenants  = 2     // tenants, one net.Pipe connection each
	serveVecs     = 8     // vectors in each tenant's arena
	serveBits     = 16384 // bits per vector
	servePayloads = 16    // distinct write payloads per tenant
	serveWarm     = 256   // requests the set-up sends at once

	serveRate    = 2000 // req/s of the latency phase
	serveSteadyS = 8.0  // seconds at serveRate, scale 1
	serveProbes  = 6    // bisection probes for the highest sustainable rate
	serveProbeS  = 1.0  // seconds per probe, scale 1
	// serveProbeMin is the arrivals a probe lasts for at least, so its p99
	// rests on 1000 samples even at the bottom of the range.
	serveProbeMin = 1200
	serveRateLo   = 1000.0
	serveRateHi   = 32000.0
	serveSLO      = 100 * time.Millisecond // p99 limit of a passing probe
	serveBacklogS = 0.1                    // backlog limit of a passing probe, in seconds of arrivals

	serveQueue  = 65536 // the one departure from pinatubod's defaults: room for a probe's backlog
	serveReplan = 256   // pinatubod's ReplanEvery

	// serveSpans estimates the traced pass's spans (two per request).
	serveSpans = 2 * serveRate * serveSteadyS
)

// The request mix, as cumulative shares.
var serveMix = [...]struct {
	kind  string
	upTo  float64
	nsrcs int
}{
	{"or", 0.50, 4},
	{"and", 0.70, 2},
	{"popcount", 0.90, 0},
	{"write", 0.95, 0},
	{"read", 1.00, 0},
}

var serveNames = [serveVecs]string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}

// serveTenant is one client connection and its oracle.
type serveTenant struct {
	name    string
	conn    net.Conn
	enc     *json.Encoder
	initial [serveVecs]*bitvec.Vector
	pool    []*bitvec.Vector // write payloads
	hex     [][]string       // pool, hex-encoded as the protocol carries it
	model   [serveVecs]*bitvec.Vector
	// tainted is set when a request failed: the server skipped it but the
	// model applied it, so the tenant's checks pause until the next resync.
	tainted atomic.Bool
}

// pendingReq is what the client expects of a request in flight.
type pendingReq struct {
	due    time.Time
	count  int            // popcount
	words  *bitvec.Vector // read
	kind   string
	sample bool
}

// serveClient is the load generator: one goroutine sends on both
// connections, and one reader goroutine per connection matches
// responses to requests.
type serveClient struct {
	p       *pass
	rng     *rand.Rand
	tenants []*serveTenant
	nextID  int64

	sent, received atomic.Int64
	mu             sync.Mutex
	pending        map[int64]pendingReq
	samples        []servedSample
	late           []float64 // how late the generator sent sampled requests, µs
	readers        sync.WaitGroup
}

// servedSample is one sampled request's latency from its due time.
type servedSample struct {
	due time.Time
	us  float64
}

// servedSystem is the server under test and its state loop.
type servedSystem struct {
	sys    *pinatubo.System
	srv    *serve.Server
	cancel context.CancelFunc
	done   chan error
}

func (s *servedSystem) start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel, s.done = cancel, make(chan error, 1)
	go func() { s.done <- s.srv.Run(ctx) }()
}

// stop ends the state loop and waits for it, so the benchmark may read
// the System's counters; start resumes serving the same connections.
func (s *servedSystem) stop() error {
	s.cancel()
	if err := <-s.done; !errors.Is(err, context.Canceled) {
		return fmt.Errorf("bench: server state loop: %w", err)
	}
	return nil
}

func newServeClient(p *pass, srv *serve.Server, tenants []*serveTenant, seed int64) *serveClient {
	c := &serveClient{p: p, rng: rand.New(rand.NewSource(seed)), tenants: tenants, pending: map[int64]pendingReq{}}
	for _, t := range tenants {
		cli, end := net.Pipe()
		srv.HandleConn(end)
		t.conn, t.enc = cli, json.NewEncoder(cli)
		c.readers.Add(1)
		go c.read(t)
	}
	return c
}

// close hangs up both connections and waits for the readers to finish.
func (c *serveClient) close() {
	for _, t := range c.tenants {
		t.conn.Close()
	}
	c.readers.Wait()
}

// read matches one connection's responses to their requests, checks them
// against the tenant's model and records latency from the due time.
func (c *serveClient) read(t *serveTenant) {
	defer c.readers.Done()
	dec := json.NewDecoder(t.conn)
	for {
		var resp serve.Response
		if err := dec.Decode(&resp); err != nil {
			return // the connection closed
		}
		now := clock()
		c.mu.Lock()
		pr, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		switch {
		case !ok:
			c.p.check.fail("tenant %s: response to unknown request %d", t.name, resp.ID)
		case !resp.OK:
			c.p.failed.Add(1)
			t.tainted.Store(true)
		case t.tainted.Load():
		case pr.kind == "popcount":
			if resp.Count == nil {
				c.p.check.fail("tenant %s request %d: popcount response without a count", t.name, resp.ID)
			} else {
				c.p.check.count(*resp.Count, pr.count, func() string { return fmt.Sprintf("tenant %s request %d", t.name, resp.ID) })
			}
		case pr.kind == "read":
			c.p.check.words(decodeHex(resp.Words), pr.words, func() string { return fmt.Sprintf("tenant %s read %d", t.name, resp.ID) })
		}
		if ok && pr.sample {
			c.mu.Lock()
			c.samples = append(c.samples, servedSample{due: pr.due, us: micros(now.Sub(pr.due))})
			c.mu.Unlock()
		}
		c.received.Add(1)
	}
}

// decodeHex parses the protocol's hex words; a malformed word reads as
// zero, which the contents check then reports.
func decodeHex(words []string) []uint64 {
	out := make([]uint64, len(words))
	for i, w := range words {
		out[i], _ = strconv.ParseUint(w, 16, 64)
	}
	return out
}

// submit registers and sends one request, due at due.
func (c *serveClient) submit(t *serveTenant, req serve.Request, pr pendingReq) error {
	c.nextID++
	req.ID, req.Tenant = c.nextID, t.name
	c.mu.Lock()
	c.pending[req.ID] = pr
	c.mu.Unlock()
	c.sent.Add(1)
	c.p.attempted.Add(1)
	if err := t.enc.Encode(req); err != nil {
		return fmt.Errorf("bench: sending to tenant %s: %w", t.name, err)
	}
	return nil
}

// next sends the next request of the mix to a random tenant, applying it
// to that tenant's model first: per-tenant program order is send order.
func (c *serveClient) next(due time.Time, sample bool) error {
	t := c.tenants[c.rng.Intn(len(c.tenants))]
	u := c.rng.Float64()
	mix := serveMix[len(serveMix)-1]
	for _, m := range serveMix {
		if u < m.upTo {
			mix = m
			break
		}
	}
	pr := pendingReq{due: due, kind: mix.kind, sample: sample}
	// Draw distinct vectors: the destination (or target) first, then the
	// sources.
	perm := [serveVecs]int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i <= mix.nsrcs; i++ {
		j := i + c.rng.Intn(serveVecs-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	v := perm[0]
	switch mix.kind {
	case "or", "and":
		op := pinatubo.OpOr
		if mix.kind == "and" {
			op = pinatubo.OpAnd
		}
		srcs := make([]*bitvec.Vector, mix.nsrcs)
		names := make([]string, mix.nsrcs)
		for i := range srcs {
			srcs[i], names[i] = t.model[perm[1+i]], serveNames[perm[1+i]]
		}
		refApply(op, t.model[v], srcs)
		if c.p.measuring {
			c.p.mix.add(op, mix.nsrcs, serveBits)
		}
		return c.submit(t, serve.Request{Type: "op", Op: mix.kind, Dst: serveNames[v], Srcs: names}, pr)
	case "popcount":
		pr.count = t.model[v].Popcount()
		return c.submit(t, serve.Request{Type: "op", Op: "popcount", Dst: serveNames[v]}, pr)
	case "write":
		k := c.rng.Intn(len(t.pool))
		t.model[v].CopyFrom(t.pool[k])
		return c.submit(t, serve.Request{Type: "write", Name: serveNames[v], Words: t.hex[k]}, pr)
	default:
		pr.words = t.model[v].Clone()
		return c.submit(t, serve.Request{Type: "read", Name: serveNames[v]}, pr)
	}
}

// drain waits until every request sent has been answered.
func (c *serveClient) drain() error {
	deadline := clock().Add(time.Minute)
	for c.received.Load() < c.sent.Load() {
		if clock().After(deadline) {
			return fmt.Errorf("bench: %d requests unanswered after a minute", c.sent.Load()-c.received.Load())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// resync rewrites every tenant's arena from its initial data (closed
// loop, untimed) and clears any taint, re-anchoring the models.
func (c *serveClient) resync() error {
	now := clock()
	for _, t := range c.tenants {
		for v := range t.initial {
			t.model[v].CopyFrom(t.initial[v])
			req := serve.Request{Type: "write", Name: serveNames[v], Words: hexWords(t.initial[v])}
			if err := c.submit(t, req, pendingReq{due: now, kind: "write"}); err != nil {
				return err
			}
		}
	}
	if err := c.drain(); err != nil {
		return err
	}
	for _, t := range c.tenants {
		t.tainted.Store(false)
	}
	return nil
}

// openLoop sends Poisson arrivals at rate for dur. With abortAt > 0 it
// stops as soon as more than abortAt requests are outstanding. It returns
// the requests sent, the backlog when the schedule ended, and whether it
// aborted.
func (c *serveClient) openLoop(rate float64, dur time.Duration, sample bool, abortAt int64) (sent, backlog int64, aborted bool, err error) {
	p := c.p
	sent0 := c.sent.Load()
	start := clock()
	for offset := time.Duration(0); offset < dur; offset += time.Duration(c.rng.ExpFloat64() / rate * float64(time.Second)) {
		due := start.Add(offset)
		if wait := due.Sub(clock()); wait > 0 {
			id := p.begin(spanClientIdle, c.nextID+1)
			time.Sleep(wait)
			p.end(id)
		}
		id := p.begin(spanClientSend, c.nextID+1)
		if sample {
			late := micros(since(due))
			c.mu.Lock()
			c.late = append(c.late, late)
			c.mu.Unlock()
		}
		err := c.next(due, sample)
		p.end(id)
		if err != nil {
			return 0, 0, false, err
		}
		if abortAt > 0 && c.sent.Load()-c.received.Load() > abortAt {
			aborted = true
			break
		}
	}
	return c.sent.Load() - sent0, c.sent.Load() - c.received.Load(), aborted, nil
}

// takeSamples hands over and resets the sampled latencies, in due-time
// order, and the generator's lateness.
func (c *serveClient) takeSamples() (lat, late []float64) {
	c.mu.Lock()
	samples := c.samples
	late = c.late
	c.samples, c.late = nil, nil
	c.mu.Unlock()
	sort.Slice(samples, func(i, j int) bool { return samples[i].due.Before(samples[j].due) })
	lat = make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.us
	}
	return lat, late
}

// serveInputs generates every tenant's initial arena and write payloads.
func serveInputs(seed int64) []*serveTenant {
	rng := rand.New(rand.NewSource(seed))
	tenants := make([]*serveTenant, serveTenants)
	for i := range tenants {
		t := &serveTenant{name: fmt.Sprintf("t%d", i)}
		for v := range t.initial {
			t.initial[v] = randomVector(rng, serveBits)
			t.model[v] = bitvec.New(serveBits)
		}
		for k := 0; k < servePayloads; k++ {
			vec := randomVector(rng, serveBits)
			t.pool, t.hex = append(t.pool, vec), append(t.hex, hexWords(vec))
		}
		tenants[i] = t
	}
	return tenants
}

// hexWords encodes a vector's words as the protocol carries them.
func hexWords(v *bitvec.Vector) []string {
	out := make([]string, v.WordCount())
	for i, w := range v.Words() {
		out[i] = strconv.FormatUint(w, 16)
	}
	return out
}

// runServeOpen measures an in-process pinatubod: PCM, window cap sized by
// the planner, a replan every 256 windows, two tenants on two net.Pipe
// connections, and an open-loop Poisson stream of 50% 4-source OR, 20%
// AND, 20% popcount, 5% write and 5% read over 16384-bit vectors. Latency
// runs from each request's due time, so a stall charges every request
// queued behind it. The latency phase runs at serveRate; the untraced
// pass then bisects geometrically over [1000, 32000] req/s for the
// highest rate whose p99 stays within serveSLO with a backlog under
// serveBacklogS of arrivals.
func runServeOpen(p *pass) (err error) {
	tenants := serveInputs(p.opts.Seed)
	cfg := pinatubo.DefaultConfig()
	var (
		ss *servedSystem
		c  *serveClient
	)
	teardown := func() error {
		if ss == nil {
			return nil
		}
		err := ss.stop()
		c.close()
		ss, c = nil, nil
		return err
	}
	err = p.timeSetup(func() error {
		if err := teardown(); err != nil {
			return err
		}
		sys, err := pinatubo.New(cfg)
		if err != nil {
			return err
		}
		srv, err := serve.New(serve.Config{
			System:      sys,
			Arb:         pinatubo.ArbFIFO,
			QueueLimit:  serveQueue,
			ReplanEvery: serveReplan,
		})
		if err != nil {
			return err
		}
		ss = &servedSystem{sys: sys, srv: srv}
		ss.start()
		c = newServeClient(p, srv, tenants, p.opts.Seed)
		now := clock()
		for _, t := range tenants {
			for _, name := range serveNames {
				if err := c.submit(t, serve.Request{Type: "alloc", Name: name, Bits: serveBits}, pendingReq{due: now, kind: "alloc"}); err != nil {
					return err
				}
			}
		}
		if err := c.drain(); err != nil {
			return err
		}
		if err := c.resync(); err != nil {
			return err
		}
		// Warm-up: a burst the server works through as fast as it can.
		now = clock()
		for i := 0; i < serveWarm; i++ {
			if err := c.next(now, false); err != nil {
				return err
			}
		}
		return c.drain()
	})
	defer func() {
		if terr := teardown(); err == nil {
			err = terr
		}
	}()
	if err != nil {
		return err
	}

	// The latency phase, between two pauses of the state loop that let the
	// benchmark read the System's ledgers.
	if err := c.resync(); err != nil {
		return err
	}
	if err := ss.stop(); err != nil {
		return err
	}
	before, m0 := snapshot(ss.sys), ss.srv.Metrics()
	ss.start()
	steady := time.Duration(serveSteadyS * p.opts.Scale * float64(time.Second))
	expect := int(serveRate*steady.Seconds()*1.25) + 1024
	c.samples, c.late = make([]servedSample, 0, expect), make([]float64, 0, expect)
	p.held = int(unsafe.Sizeof(servedSample{}))*expect + 8*expect
	ph := p.startPhase(0)
	sent, backlog, _, err := c.openLoop(serveRate, steady, true, 0)
	if err != nil {
		return err
	}
	if err := c.drain(); err != nil {
		return err
	}
	p.endPhase(ph, sent)
	lat, late := c.takeSamples()
	p.lat = lat
	p.cutEvenly()
	if err := ss.stop(); err != nil {
		return err
	}
	after, m1 := snapshot(ss.sys), ss.srv.Metrics()
	ss.start()
	p.primary, _ = bestMedian(lat, p.cuts)

	p.counterLayers(before, after, sent, float64(sent)*serveBits)
	windows := m1.Windows - m0.Windows
	v := p.layers
	v["sim_ns_per_op"] = ratio((m1.SimSeconds-m0.SimSeconds)*1e9, float64(m1.OpsDone-m0.OpsDone))
	v["serve.windows"] = float64(windows)
	v["serve.ops_per_window"] = ratio(float64(m1.OpsDone-m0.OpsDone), float64(windows))
	v["serve.window_cap"] = float64(m1.WindowCap)
	v["serve.replans"] = float64(m1.Windows/serveReplan - m0.Windows/serveReplan)
	v["serve.shed"] = float64(m1.OpsShed - m0.OpsShed)
	v["serve.host_ops"] = float64(m1.HostOps - m0.HostOps)
	v["serve.window_sim_p99_ns"] = float64(m1.WindowLatency.P99.Nanoseconds())
	v["client.backlog_end"] = float64(backlog)
	sort.Float64s(late)
	if v["client.gen_late_p99_us"], err = percentile(late, 0.99); err != nil {
		v["client.gen_late_p99_us"] = math.NaN()
	}
	if p.tr != nil {
		if err := p.replays(cfg, ss.sys.RowBits()); err != nil {
			return err
		}
		v["serve.replan_share"] = ratio(v["serve.replans"]*v["serve.replan_ms"]/1e3, p.wall)
		return nil
	}

	maxRate, err := c.bisect(p.opts.Scale)
	if err != nil {
		return err
	}
	p.extra = []Metric{{Name: "max_rate_rps", Unit: "req/s", Value: maxRate, N: serveProbes}}
	return nil
}

// bisect probes geometrically over [serveRateLo, serveRateHi] and returns
// the highest rate that passed (serveRateLo when none did). A probe
// fails as soon as its backlog passes serveBacklogS of arrivals.
func (c *serveClient) bisect(scale float64) (float64, error) {
	lo, hi := serveRateLo, serveRateHi
	for i := 0; i < serveProbes; i++ {
		rate := math.Sqrt(lo * hi)
		if err := c.resync(); err != nil {
			return 0, err
		}
		secs := math.Max(serveProbeS*scale, serveProbeMin/rate)
		limit := int64(serveBacklogS * rate)
		_, backlog, aborted, err := c.openLoop(rate, time.Duration(secs*float64(time.Second)), true, limit)
		if err != nil {
			return 0, err
		}
		if err := c.drain(); err != nil {
			return 0, err
		}
		lat, _ := c.takeSamples()
		sort.Float64s(lat)
		p99, err := percentile(lat, 0.99)
		ok := err == nil && !aborted && backlog <= limit && p99 <= float64(serveSLO.Microseconds())
		if ok {
			lo = rate
		} else {
			hi = rate
		}
	}
	return lo, nil
}
