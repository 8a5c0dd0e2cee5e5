package driver

import (
	"fmt"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// multiShard reports whether the configuration describes a sharded pool
// rather than the classic single cluster — the only single-or-pool
// predicate in the code base (NewEngine is its one caller). Any shard
// option, including an explicit Shards=1 or a placement, selects the pool
// engine, whose K=1 behaviour is tested to match the single cluster.
func (c Config) multiShard() bool {
	return c.Shards != 0 || len(c.ShardNodes) > 0 || len(c.ShardNodeCosts) > 0 || c.Placement != nil
}

// ShardPlan resolves the pool layout the configuration describes: the
// shard count and one cost model per shard. Per-shard node counts
// (ShardNodes) and explicit per-shard cost tables (ShardNodeCosts) both
// fix the shard count; when only Shards is given, every shard is a copy
// of the single-cluster configuration — except that a spread draw
// (CmsSpread/CpsSpread) seeds shard j with HeteroSeed+j, so a fleet of
// spread shards gets distinct tables while shard 0 reproduces the
// single-cluster draw.
func (c Config) ShardPlan() (int, []*dlt.CostModel, error) {
	k := c.Shards
	if k < 0 {
		return 0, nil, fmt.Errorf("driver: negative shard count %d: %w", k, errs.ErrBadConfig)
	}
	if len(c.NodeCosts) > 0 && (len(c.ShardNodes) > 0 || len(c.ShardNodeCosts) > 0) {
		// A single-cluster cost table cannot size individually-shaped
		// shards; dropping it silently would simulate the wrong cost model.
		return 0, nil, fmt.Errorf("driver: NodeCosts conflicts with per-shard sizing; give each shard its own table via ShardNodeCosts: %w", errs.ErrBadConfig)
	}
	if n := len(c.ShardNodeCosts); n > 0 {
		if k != 0 && k != n {
			return 0, nil, fmt.Errorf("driver: %d shard cost tables for Shards=%d: %w", n, k, errs.ErrBadConfig)
		}
		k = n
	}
	if n := len(c.ShardNodes); n > 0 {
		if k != 0 && k != n {
			return 0, nil, fmt.Errorf("driver: %d shard node counts for %d shards: %w", n, k, errs.ErrBadConfig)
		}
		k = n
	}
	if k == 0 {
		k = 1
	}
	cms := make([]*dlt.CostModel, k)
	for j := range cms {
		var err error
		if len(c.ShardNodeCosts) > 0 {
			cms[j], err = dlt.NewCostModel(c.ShardNodeCosts[j])
		} else {
			cj := c
			cj.Shards, cj.ShardNodes, cj.ShardNodeCosts, cj.Placement = 0, nil, nil, nil
			if len(c.ShardNodes) > 0 {
				cj.N = c.ShardNodes[j]
			}
			cj.HeteroSeed = c.HeteroSeed + uint64(j)
			cms[j], err = cj.CostModel()
		}
		if err != nil {
			return 0, nil, fmt.Errorf("driver: shard %d: %w", j, err)
		}
	}
	return k, cms, nil
}

// NewEngine assembles the admission engine the configuration describes,
// with every shard's waiting queue bounded by maxQueue (0 = unbounded) and
// instrumented on met (nil = uninstrumented), all on the given clock. It
// is the one place that decides between a single cluster and a pool: a
// classic configuration gets a bare *service.Service — never a one-shard
// pool, so the single-cluster hot path has no routing layer — and any shard
// option gets a *pool.Pool. Run and the root package's New both build
// their engine here.
func (c Config) NewEngine(clock service.Clock, maxQueue int, met *service.Metrics) (service.Engine, error) {
	k, cms, err := c.ShardPlan()
	if err != nil {
		return nil, err
	}
	pol, err := rt.ParsePolicy(c.Policy)
	if err != nil {
		return nil, err
	}
	shards := make([]pool.ShardConfig, k)
	for j := range shards {
		part, err := c.NewPartitioner()
		if err != nil {
			return nil, err
		}
		cl, err := cluster.NewHetero(cms[j].Costs())
		if err != nil {
			return nil, err
		}
		shards[j] = pool.ShardConfig{Cluster: cl, Policy: pol, Partitioner: part, MaxQueue: maxQueue, Observer: c.Observer}
	}
	if c.multiShard() {
		pl, err := pool.New(pool.Config{Shards: shards, Placement: c.Placement, Clock: clock, Metrics: met})
		if err != nil {
			return nil, err // a typed nil would make a non-nil Engine
		}
		return pl, nil
	}
	svc, err := service.New(service.Config{
		Cluster:     shards[0].Cluster,
		Policy:      pol,
		Partitioner: shards[0].Partitioner,
		Clock:       clock,
		Observer:    c.Observer,
		MaxQueue:    maxQueue,
		Metrics:     met,
	})
	if err != nil {
		return nil, err
	}
	return svc, nil
}
