package service

import (
	"strconv"
	"sync"

	"rtdls/internal/cluster"
	"rtdls/internal/errs"
	"rtdls/internal/metrics"
	"rtdls/internal/rt"
)

// Metrics binds a metrics.Registry to the admission engine: per-stage
// admission latency histograms (implementing rt.StageObserver), per-shard
// outcome counters and load gauges, and the event-stream drop counter. One
// Metrics instance is shared by every shard of a pool — instruments are
// registered idempotently, keyed by shard index.
//
// Every update is an atomic store or add performed by the engine at the
// moment the state changes, so a /metrics scrape reads the instruments
// without ever touching the scheduler or service locks.
type Metrics struct {
	reg   *metrics.Registry
	stage [rt.NumStages]*metrics.Histogram

	mu     sync.Mutex
	shards map[int]*shardInstruments

	busOnce sync.Once

	readmitOnce sync.Once
	readmitHist *metrics.Histogram
}

// shardInstruments is one shard's counter/gauge set. The invariant the
// wire smoke test asserts — submits == accepts + rejects — holds per
// shard: every submission attempt a shard sees (including spillover
// retries) ends as exactly one accept or one reject at that shard.
type shardInstruments struct {
	submits *metrics.Counter
	accepts *metrics.Counter
	commits *metrics.Counter
	rejects map[errs.Reason]*metrics.Counter

	queueDepth    *metrics.Gauge
	queueDepthMax *metrics.Gauge
	utilization   *metrics.Gauge
	busyTime      *metrics.Gauge

	displacements *metrics.Counter
	fleetNodes    map[cluster.NodeState]*metrics.Gauge
}

// NewMetrics returns a Metrics bound to the registry, with the per-stage
// admission histograms pre-registered. Pass it to service.Config.Metrics
// or pool.Config.Metrics; nil disables instrumentation entirely.
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{reg: reg, shards: make(map[int]*shardInstruments)}
	for st := rt.StageCandidate; int(st) < rt.NumStages; st++ {
		m.stage[st] = reg.Histogram("rtdls_admission_stage_seconds",
			"Wall-clock seconds spent in each admission pipeline stage.",
			metrics.Labels{"stage": st.String()})
	}
	return m
}

// Registry returns the underlying registry (for mounting /metrics and for
// registering additional instruments alongside the engine's).
func (m *Metrics) Registry() *metrics.Registry { return m.reg }

// ObserveStage implements rt.StageObserver: one sample per pipeline stage
// per admission test, recorded on atomic histograms.
func (m *Metrics) ObserveStage(stage rt.Stage, seconds float64) {
	if int(stage) < len(m.stage) {
		m.stage[stage].Observe(seconds)
	}
}

// decisionReasons are the rejection classes a Decision can carry; wire-only
// reasons (bad-request, cancelled, internal) never reach the engine.
var decisionReasons = []errs.Reason{errs.ReasonInfeasible, errs.ReasonDeadlinePast, errs.ReasonBusy}

// shard returns (registering on first use) shard i's instrument set.
func (m *Metrics) shard(i int) *shardInstruments {
	m.mu.Lock()
	defer m.mu.Unlock()
	if si, ok := m.shards[i]; ok {
		return si
	}
	lbl := metrics.Labels{"shard": strconv.Itoa(i)}
	si := &shardInstruments{
		submits: m.reg.Counter("rtdls_submits_total",
			"Submission attempts per shard (a spillover retry counts at every shard it touches).", lbl),
		accepts: m.reg.Counter("rtdls_accepts_total",
			"Tasks admitted by the schedulability test, per shard.", lbl),
		commits: m.reg.Counter("rtdls_commits_total",
			"Plans committed (first transmission started), per shard.", lbl),
		rejects: make(map[errs.Reason]*metrics.Counter, len(decisionReasons)),
		queueDepth: m.reg.Gauge("rtdls_queue_depth",
			"Admitted-but-uncommitted tasks right now, per shard.", lbl),
		queueDepthMax: m.reg.Gauge("rtdls_queue_depth_max",
			"High-water mark of the waiting queue, per shard.", lbl),
		utilization: m.reg.Gauge("rtdls_utilization",
			"Committed busy time over node-time capacity, per shard.", lbl),
		busyTime: m.reg.Gauge("rtdls_busy_time_seconds",
			"Committed node-time (node-seconds of busy capacity), per shard.", lbl),
	}
	for _, r := range decisionReasons {
		si.rejects[r] = m.reg.Counter("rtdls_rejects_total",
			"Tasks rejected, per shard and wire reason token.",
			metrics.Labels{"shard": strconv.Itoa(i), "reason": r.String()})
	}
	si.displacements = m.reg.Counter("rtdls_displacements_total",
		"Admitted-but-uncommitted tasks that lost their seat to a node drain or failure, per shard.", lbl)
	si.fleetNodes = make(map[cluster.NodeState]*metrics.Gauge, 3)
	for _, st := range cluster.NodeStates() {
		si.fleetNodes[st] = m.reg.Gauge("rtdls_fleet_nodes",
			"Cluster nodes by lifecycle state, per shard.",
			metrics.Labels{"shard": strconv.Itoa(i), "state": st.String()})
	}
	m.shards[i] = si
	return si
}

// setFleet refreshes the per-state node-count gauges.
func (si *shardInstruments) setFleet(up, draining, down int) {
	si.fleetNodes[cluster.NodeUp].Set(float64(up))
	si.fleetNodes[cluster.NodeDraining].Set(float64(draining))
	si.fleetNodes[cluster.NodeDown].Set(float64(down))
}

// Readmission returns (registering on first use) the pool-level histogram
// of seconds between a task's displacement and its re-admission on another
// shard.
func (m *Metrics) Readmission() *metrics.Histogram {
	m.readmitOnce.Do(func() {
		m.readmitHist = m.reg.Histogram("rtdls_readmission_seconds",
			"Wall-clock seconds from a task's displacement to its re-admission on another shard.", nil)
	})
	return m.readmitHist
}

// reject counts one rejection under its reason label.
func (si *shardInstruments) reject(r errs.Reason) {
	if c, ok := si.rejects[r]; ok {
		c.Inc()
	}
}

// observeBus registers the event-drop counter against the given bus. Only
// the first bus wins (a pool's shards all share one bus, so this is the
// natural fit); registration is idempotent.
func (m *Metrics) observeBus(b *Bus) {
	m.busOnce.Do(func() {
		m.reg.CounterFunc("rtdls_events_dropped_total",
			"Events lost across all lagging event-stream subscribers.", nil,
			func() float64 { return float64(b.DroppedTotal()) })
	})
}
