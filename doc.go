// Package rtdls is a Go implementation of real-time divisible load
// scheduling for clusters with different processor available times,
// reproducing Lin, Lu, Deogun and Goddard, "Real-Time Divisible Load
// Scheduling with Different Processor Available Times" (University of
// Nebraska–Lincoln, TR-UNL-CSE-2007-0013; ICPP 2007).
//
// Arbitrarily divisible (embarrassingly parallel) workloads — common in
// high-energy physics pipelines such as CMS and ATLAS — can be split into
// any number of independent chunks. When such loads carry deadlines, a
// cluster RMS must decide on admission whether a task can finish in time.
// Classic schedulers wait until enough processors are simultaneously free,
// wasting the Inserted Idle Times (IITs) on processors that freed up early.
// The paper's contribution, implemented here, transforms the homogeneous
// cluster with staggered availability into an equivalent heterogeneous
// cluster that is allocated all at once, applies divisible load theory to
// partition the task so that every processor starts as soon as it is free
// yet all finish (nearly) together, and proves the resulting completion
// estimate safe for hard real-time admission control.
//
// The paper's test is online — tasks arrive one at a time and are admitted
// or rejected against the current processor available times — and since
// 2.0 the API is organised around exactly that surface. The package offers
// three levels:
//
//   - Service: the long-lived, goroutine-safe admission-control service.
//     Build one with New and functional options, submit tasks from any
//     goroutine with Submit/SubmitBatch, follow decisions on the Subscribe
//     event stream or the Stats snapshot, and swap the Clock to run the
//     identical engine under simulated or wall-clock time:
//
//     svc, err := rtdls.New(
//     rtdls.WithNodes(16),
//     rtdls.WithParams(rtdls.Params{Cms: 1, Cps: 100}),
//     rtdls.WithPolicy(rtdls.EDF),
//     rtdls.WithAlgorithm(rtdls.AlgDLTIIT),
//     )
//     dec, err := svc.Submit(ctx, rtdls.Task{ID: 1, Sigma: 200, RelDeadline: 2800})
//
//     Failures are typed: errors.Is against ErrInfeasible, ErrDeadlinePast,
//     ErrClusterBusy and ErrBadConfig distinguishes clean rejections from
//     bad input at every layer.
//
//   - Simulate / Workload: one-call discrete-event replay of a synthetic
//     workload through the same service engine, returning admission and
//     execution metrics. (The deprecated 1.x Run/Config shims were removed
//     in 3.0.0; internal/driver still proves the replay reproduces the
//     pre-redesign results bit for bit.)
//
//   - Model: the heterogeneous-model mathematics itself (Eqs. 1–7 of the
//     paper) for analysis work.
//
// Beyond the paper, the whole stack is generalised from one shared
// (Cms, Cps) cost pair to per-node coefficients: pass WithNodeCosts or
// WithCostSpread (or build clusters with NewHeteroCluster), partition
// mixed-speed node sets with NewHeteroModel, and note that a uniform cost
// table reproduces the homogeneous scheduler bit for bit. Heterogeneous
// plans are admitted against exactly simulated dispatch timelines,
// preserving the hard real-time guarantee without the paper's common-Cms
// assumption.
//
// For scale-out, the service shards into a multi-cluster admission pool
// (internal/pool), after the multi-source divisible-load systems of
// Wu/Cao/Robertazzi: WithShards(k) runs K independent clusters — each
// with its own scheduler, lock and commit pump, sharing one clock and one
// shard-tagged event stream — behind the identical Service surface, and
// WithPlacement selects the routing layer (RoundRobin, LeastLoaded,
// PowerOfTwoChoices, or Spillover, which retries rejected tasks on the
// remaining shards before giving a final reject). WithShardNodes and
// WithShardNodeCosts describe heterogeneous fleets of differently sized
// and priced clusters. Decisions and events report the placing shard,
// Stats aggregates the fleet, and ShardStats/Clusters expose per-shard
// views. The default single-cluster service is exactly the K=1 special
// case: WithShards(1) is property-tested to be bit-for-bit identical to
// it, and a K-shard RoundRobin pool reproduces K independent
// single-cluster simulations decision for decision. See examples/pool.
//
// Since 3.0.0 the same engine serves over the wire. cmd/dlserve is an
// HTTP/JSON front end (internal/server) exposing submit, batch, stats, a
// Server-Sent-Events decision stream with explicit gap notices for lossy
// consumers, and a graceful SIGTERM drain that never loses a committed
// task. Every rejection carries a wire-stable Reason token and integer
// Code (see Reasons, ParseReason and Code in this package): the HTTP
// status of a rejected submission is exactly the reason's code, busy
// rejections carry a Retry-After derived from the engine's queue slack,
// and Decision.Reason exposes the same token in process while remaining
// errors.Is-matchable against the sentinels. cmd/dlload load-tests the
// wire — closed-loop or open-loop (Poisson, bursty or replayed arrivals,
// measured against intended arrival instants to avoid coordinated
// omission) — and emits an HDR-style latency/outcome report.
//
// Since 3.2.0 the fleet is dynamic. DrainNode stops placing new work on
// a node (committed work finishes), FailNode removes its capacity now,
// RestoreNode returns it to service, and AddNode grows the cluster — on
// a Service, a Pool and over the wire (POST /v1/nodes/{id}/{action}).
// On capacity loss the scheduler re-validates every admitted-but-
// uncommitted plan through the normal schedulability test; tasks that no
// longer fit are displaced (EventDisplace, ReasonNodeUnavailable,
// ErrDisplaced) and, on a pool, re-admitted on another shard when one
// passes the test. Committed plans are never broken — churn displaces,
// it does not create deadline misses — and a fail-then-restore cycle
// with an empty interim queue is property-tested to leave the scheduler
// bit-identical to one that never failed. Churn is scriptable with one
// grammar everywhere (ParseChurnSchedule; -churn on dlsim, dlserve and
// dlload): ";"-separated "t=<offset> <drain|fail|restore> <node>"
// entries, deterministic under the simulated clock via WithChurn and
// chaos-style over the wire from the load generator. See examples/churn.
//
// The stack is observable end to end without external dependencies:
// NewMetricsRegistry plus WithMetrics install an atomic instrumentation
// layer (internal/metrics) that the server renders as Prometheus text
// exposition on GET /metrics — per-stage admission latency histograms
// (candidate scan, planning, schedulability check, commit), per-shard
// accept/reject/commit counters, queue-depth and utilization gauges, and
// HTTP request metrics. Instruments update via atomic stores at
// state-change time and a scrape only reads atomics, so monitoring never
// contends with the scheduler lock. dlserve adds net/http/pprof behind
// -pprof-addr and structured log/slog request logging with request-id
// propagation; dlload scrapes /metrics around each run and embeds the
// server-side stage/shard deltas in its report.
//
// Since 3.3.0 admission cost is sub-linear in the fleet size. The
// scheduler's availability view is an order-statistic index (a
// size-augmented treap over eligibility, release time and node id) kept
// base-synced with the committed cluster state via a mutation counter, so
// a steady-state schedulability test rolls back the previous test's
// tentative assignments in O(changed·log n) instead of re-sorting all n
// nodes, and "the earliest k nodes" materialises in O(k + log n). A sound
// infeasibility fast-reject runs before any planning: tasks that provably
// cannot meet their deadline even on the earliest possible release times
// (one O(log n) order-statistic probe) are rejected without replanning
// the queue, leaving the admission decision stream bit-for-bit unchanged
// — a property enforced by differential and fuzz suites against a
// full-sort reference implementation. Per-submit cost is flat from 100
// to 10,000 nodes; CI gates the growth ratio via cmd/benchgate over the
// BenchmarkSubmit/nodes=N sweep (BENCH_index.json).
//
// Since 4.0.0 each shard has exactly one admission path: Submit and
// SubmitBatch take the shard's lock and run the Fig. 2 test
// (Scheduler.Submit) under it, so the decision stream of one shard is the
// lock acquisition order replayed serially. The optimistic two-phase path
// of 3.4.0 (off-lock planning with an epoch-validated install) is gone:
// it rebuilt a private availability view whenever the epoch moved, which
// at 1,024 nodes made the median submit about 5× slower, and no benchmark workload
// showed it winning. Concurrency comes from independent shards instead: a
// pool's SubmitBatch fans its per-shard sub-batches out in parallel, and
// Stats reads atomics only, so scrapes never wait on a shard lock.
// dlserve's -mutex-profile-fraction/-block-profile-rate show the lock
// waits on the -pprof-addr listener.
//
// Build and test with the standard toolchain — go build ./... and
// go test ./... — or via the Makefile (make ci mirrors the CI pipeline:
// build, gofmt gate, vet, race tests, benchmark compile check and a fuzz
// smoke pass; make bench-json emits the BENCH_service.json perf sample the
// CI bench job uploads).
//
// The experiment harness that regenerates every figure of the paper, plus
// the xHET* heterogeneity panels, lives in cmd/figures; see DESIGN.md and
// EXPERIMENTS.md.
package rtdls
