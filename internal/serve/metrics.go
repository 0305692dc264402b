package serve

import (
	"slices"
	"time"

	"pinatubo"
	"pinatubo/internal/chansim"
)

// TenantMetrics is one tenant's share of the server's work.
type TenantMetrics struct {
	// Admitted counts ops that made it into a batch window.
	Admitted int64 `json:"admitted"`
	// Shed counts ops rejected by the admission controller past
	// saturation.
	Shed int64 `json:"shed"`
	// HostOps counts alloc/write/read/free requests served.
	HostOps int64 `json:"host_ops"`
}

// Metrics is a snapshot of the server's sustained behaviour. Simulated
// figures come from the scheduler's clock (the sum of window makespans);
// wall figures from the host clock.
type Metrics struct {
	// Windows is the number of batch windows executed.
	Windows int64 `json:"windows"`
	// WindowCap is the admission controller's current window size — the
	// planner's live saturation point.
	WindowCap int `json:"window_cap"`
	// OpsDone / OpsShed count admitted-and-completed vs shed ops.
	OpsDone int64 `json:"ops_done"`
	OpsShed int64 `json:"ops_shed"`
	// HostOps counts host-path requests (alloc/write/read/free).
	HostOps int64 `json:"host_ops"`
	// SimSeconds is the accumulated simulated channel time of every
	// window; SimOpsPerSec is OpsDone over it — the sustained in-memory
	// throughput the windows achieved.
	SimSeconds   float64 `json:"sim_seconds"`
	SimOpsPerSec float64 `json:"sim_ops_per_sec"`
	// WallOpsPerSec is OpsDone over host wall time since the server
	// started serving.
	WallOpsPerSec float64 `json:"wall_ops_per_sec"`
	// Latency spreads per-op completion times inside their windows
	// (simulated, nearest-rank percentiles).
	Latency pinatubo.LatencyStats `json:"latency"`
	// WindowLatency spreads window makespans (simulated).
	WindowLatency pinatubo.LatencyStats `json:"window_latency"`
	// Program-cache and sandbox-pool counters from the System's PerfStats,
	// snapshotted at each window boundary — the raw-speed observability of
	// the simulator itself (cached and uncached runs are bit-identical).
	ProgramCacheHits      int64 `json:"program_cache_hits"`
	ProgramCacheMisses    int64 `json:"program_cache_misses"`
	ProgramCacheEvictions int64 `json:"program_cache_evictions"`
	SandboxPoolGets       int64 `json:"sandbox_pool_gets"`
	SandboxPoolReuses     int64 `json:"sandbox_pool_reuses"`
	// Tenants breaks admission down per tenant — the fairness ledger.
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
}

// metricsState accumulates raw samples on the state loop; snapshots are
// computed on demand.
type metricsState struct {
	windows    int64
	windowCap  int
	opsDone    int64
	opsShed    int64
	hostOps    int64
	simSeconds float64
	started    time.Time

	opLatencies     []time.Duration
	windowLatencies []time.Duration
	perf            pinatubo.PerfStats
	tenants         map[string]*TenantMetrics
}

func newMetricsState(now time.Time) *metricsState {
	return &metricsState{started: now, tenants: make(map[string]*TenantMetrics)}
}

func (m *metricsState) tenant(name string) *TenantMetrics {
	tm, ok := m.tenants[name]
	if !ok {
		tm = &TenantMetrics{}
		m.tenants[name] = tm
	}
	return tm
}

// snapshot renders the accumulated samples as a Metrics value.
func (m *metricsState) snapshot(now time.Time) Metrics {
	out := Metrics{
		Windows:    m.windows,
		WindowCap:  m.windowCap,
		OpsDone:    m.opsDone,
		OpsShed:    m.opsShed,
		HostOps:    m.hostOps,
		SimSeconds: m.simSeconds,
		Latency:    latencyStats(m.opLatencies),
		Tenants:    make(map[string]TenantMetrics, len(m.tenants)),
	}
	out.WindowLatency = latencyStats(m.windowLatencies)
	out.ProgramCacheHits = m.perf.ProgramCacheHits
	out.ProgramCacheMisses = m.perf.ProgramCacheMisses
	out.ProgramCacheEvictions = m.perf.ProgramCacheEvictions
	out.SandboxPoolGets = m.perf.SandboxPoolGets
	out.SandboxPoolReuses = m.perf.SandboxPoolReuses
	if m.simSeconds > 0 {
		out.SimOpsPerSec = float64(m.opsDone) / m.simSeconds
	}
	if wall := now.Sub(m.started).Seconds(); wall > 0 {
		out.WallOpsPerSec = float64(m.opsDone) / wall
	}
	for name, tm := range m.tenants {
		out.Tenants[name] = *tm
	}
	return out
}

// latencyStats pools samples into nearest-rank percentiles, the same
// summary shape and rank rule (chansim.NearestRank) the planner reports.
func latencyStats(samples []time.Duration) pinatubo.LatencyStats {
	if len(samples) == 0 {
		return pinatubo.LatencyStats{}
	}
	sorted := append([]time.Duration(nil), samples...)
	slices.Sort(sorted)
	var sum time.Duration
	for _, s := range sorted {
		sum += s
	}
	return pinatubo.LatencyStats{
		P50:  sorted[chansim.NearestRank(0.50, len(sorted))],
		P99:  sorted[chansim.NearestRank(0.99, len(sorted))],
		Mean: sum / time.Duration(len(sorted)),
		Max:  sorted[len(sorted)-1],
	}
}
