package service

import (
	"context"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/rt"
)

// Engine is the admission-control surface shared by a single-cluster
// Service and a multi-shard pool.Pool: everything the public rtdls.Service
// needs — submissions, the event stream, statistics and lifecycle — works
// identically whether one scheduler or K shards sit behind it. The
// single-cluster Service is exactly the K=1 special case.
type Engine interface {
	// Submit runs the admission test for one task and returns the decision.
	Submit(ctx context.Context, t rt.Task) (Decision, error)
	// SubmitBatch submits several tasks in order, one decision per task.
	SubmitBatch(ctx context.Context, tasks []rt.Task) ([]Decision, error)
	// Subscribe attaches a consumer to the decision/lifecycle event stream.
	Subscribe(buffer int) (<-chan Event, func())
	// SubscribeStream attaches a consumer and returns its Subscription
	// handle, exposing the subscriber's own dropped-event count.
	SubscribeStream(buffer int) *Subscription
	// SetAccepting flips the admission gate: while false, submissions fail
	// fast with ErrClusterBusy while commits and the event stream keep
	// running — the first step of a graceful drain.
	SetAccepting(accepting bool)
	// Accepting reports whether the admission gate is open (lock-free; the
	// health endpoint's readiness signal).
	Accepting() bool
	// Stats returns a snapshot of admission counters and cluster accounting,
	// aggregated over every shard.
	Stats() Stats
	// Exec returns the accumulated execution metrics of committed plans,
	// aggregated over every shard.
	Exec() ExecStats
	// NextCommit returns the earliest pending first-transmission time over
	// all shards, or ok=false when nothing is waiting.
	NextCommit() (at float64, ok bool)
	// CommitDue starts every transmission due at the given time.
	CommitDue(now float64) error
	// Pump commits everything due at the current clock reading.
	Pump() error
	// Drain commits every remaining waiting plan regardless of the clock.
	Drain() error
	// Clock returns the engine's clock.
	Clock() Clock
	// DrainNode stops placing new work on the node (committed work runs to
	// completion), re-validating every waiting plan; tasks that no longer
	// fit are displaced and, on a pool, re-admitted elsewhere.
	DrainNode(node int) (FleetResult, error)
	// FailNode removes the node's capacity immediately; waiting plans are
	// re-validated exactly as for DrainNode.
	FailNode(node int) (FleetResult, error)
	// RestoreNode returns a drained or failed node to service; nothing is
	// displaced (capacity only grows).
	RestoreNode(node int) (FleetResult, error)
	// AddNode grows the fleet by one node with the given cost coefficients
	// and returns its engine-wide node id.
	AddNode(nc dlt.NodeCost) (int, error)
	// NodeStates returns every node's lifecycle state, indexed by the
	// engine-wide node id (shard-major for a pool).
	NodeStates() []NodeState
	// Shards returns the number of member clusters (1 for a Service).
	Shards() int
	// Clusters returns every shard's cluster, indexed by shard.
	Clusters() []*cluster.Cluster
	// ShardStats returns every shard's own snapshot, indexed by shard.
	ShardStats() []Stats
	// Close marks the engine closed and tears down the event stream.
	Close() error
}

// Service implements Engine; pool.Pool provides the multi-shard
// implementation.
var _ Engine = (*Service)(nil)
