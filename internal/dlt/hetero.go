package dlt

import (
	"fmt"
	"math"

	"rtdls/internal/errs"
)

// This file generalises the linear cost model from one scalar (Cms, Cps)
// pair shared by every node to per-node coefficients (Cms_i, Cps_i),
// following the heterogeneous star-network analyses of Gallet, Robert and
// Vivien ("Comments on 'Design and performance evaluation of load
// distribution strategies…'") and Wu, Cao and Robertazzi ("Optimal
// Divisible Load Scheduling for Resource-Sharing Network").
//
// A homogeneous cluster is simply the table whose entries are all equal:
// every planner runs one code path over the table, and the closed forms of
// dlt.go (E(σ,n), the geometric α) are what the recurrences below reduce
// to, up to floating-point rounding, on a uniform table.

// NodeCost holds one processing node's linear cost coefficients: Cms is the
// time to transmit one unit of load over that node's link, Cps the time to
// process one unit on that node. Cps must be positive and finite; Cms must
// be non-negative and finite (a zero Cms models an infinitely fast link,
// the degenerate end of the heterogeneity range).
type NodeCost struct {
	Cms float64
	Cps float64
}

// Validate reports whether the coefficients describe a usable node.
func (c NodeCost) Validate() error {
	if !(c.Cms >= 0) || math.IsInf(c.Cms, 0) {
		return fmt.Errorf("dlt: node Cms must be non-negative and finite, got %v: %w", c.Cms, errs.ErrBadConfig)
	}
	if !(c.Cps > 0) || math.IsInf(c.Cps, 0) {
		return fmt.Errorf("dlt: node Cps must be positive and finite, got %v: %w", c.Cps, errs.ErrBadConfig)
	}
	return nil
}

// Params converts the node's coefficients to a scalar Params value.
func (c NodeCost) Params() Params { return Params{Cms: c.Cms, Cps: c.Cps} }

// CostModel is an immutable per-node cost table for a cluster of N nodes,
// indexed by node id. A CostModel whose entries are all equal (with a
// positive Cms) is "uniform": it runs through the same code as any other
// table, and in planning the only thing uniformity selects is the
// admission estimate of the single-round planners: the paper's Eq. 6
// bound, which Theorem 4 proves for a common Cms (see
// rt.PlanContext.SingleRoundEst).
type CostModel struct {
	costs   []NodeCost
	uniform bool
	fastest NodeCost // componentwise minima, precomputed so Fastest is O(1)
}

// NewCostModel builds a cost model from per-node coefficients (indexed by
// node id). The slice is copied; it must be non-empty and every entry must
// validate.
func NewCostModel(costs []NodeCost) (*CostModel, error) {
	if len(costs) == 0 {
		return nil, fmt.Errorf("dlt: cost model needs at least one node: %w", errs.ErrBadConfig)
	}
	cp := make([]NodeCost, len(costs))
	copy(cp, costs)
	uniform := true
	for i, c := range cp {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("dlt: cost model node %d: %w", i, err)
		}
		if c != cp[0] {
			uniform = false
		}
	}
	if uniform && !(cp[0].Cms > 0) {
		// The paper's model requires Cms > 0 (β < 1); a uniform zero-Cms
		// table is not the paper's cluster.
		uniform = false
	}
	return &CostModel{costs: cp, uniform: uniform, fastest: minCost(cp)}, nil
}

// minCost returns the componentwise minima over the (non-empty) table.
func minCost(costs []NodeCost) NodeCost {
	f := costs[0]
	for _, c := range costs[1:] {
		f.Cms = math.Min(f.Cms, c.Cms)
		f.Cps = math.Min(f.Cps, c.Cps)
	}
	return f
}

// UniformCosts returns the cost model in which every one of the n nodes has
// the scalar coefficients p — the paper's homogeneous cluster.
func UniformCosts(p Params, n int) (*CostModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("dlt: cost model needs at least one node, got %d: %w", n, errs.ErrBadConfig)
	}
	costs := make([]NodeCost, n)
	for i := range costs {
		costs[i] = NodeCost{Cms: p.Cms, Cps: p.Cps}
	}
	return &CostModel{costs: costs, uniform: true, fastest: costs[0]}, nil
}

// N returns the number of nodes.
func (m *CostModel) N() int { return len(m.costs) }

// At returns node id's coefficients.
func (m *CostModel) At(id int) NodeCost { return m.costs[id] }

// Uniform reports whether every node has identical coefficients with a
// positive Cms, i.e. the table is the paper's homogeneous cluster.
func (m *CostModel) Uniform() bool { return m.uniform }

// Reference returns the scalar Params consumers use as the model's
// normalisation anchor (workload calibration): for a uniform model the
// shared coefficients themselves, and otherwise the arithmetic per-node
// means.
func (m *CostModel) Reference() Params {
	if m.uniform {
		return m.costs[0].Params()
	}
	var cms, cps float64
	for _, c := range m.costs {
		cms += c.Cms
		cps += c.Cps
	}
	n := float64(len(m.costs))
	return Params{Cms: cms / n, Cps: cps / n}
}

// Fastest returns the componentwise minima over all nodes — an "optimistic
// uniform cluster" at least as fast as any real subset, used for safe lower
// bounds such as HeteroMinNodesBound and the admission fast-reject. O(1):
// the minima are precomputed at construction.
func (m *CostModel) Fastest() NodeCost { return m.fastest }

// Select returns the coefficients of the given node ids, in id-slice order
// (the caller's dispatch order). The result is freshly allocated.
func (m *CostModel) Select(ids []int) []NodeCost {
	out := make([]NodeCost, len(ids))
	for i, id := range ids {
		out[i] = m.costs[id]
	}
	return out
}

// Costs returns a copy of the full per-node table, indexed by node id.
func (m *CostModel) Costs() []NodeCost {
	out := make([]NodeCost, len(m.costs))
	copy(out, m.costs)
	return out
}

// validateCosts checks a dispatch-ordered coefficient slice.
func validateCosts(costs []NodeCost) error {
	if len(costs) == 0 {
		return fmt.Errorf("dlt: need at least one node cost: %w", errs.ErrBadConfig)
	}
	for i, c := range costs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("dlt: costs[%d]: %w", i, err)
		}
	}
	return nil
}

// HeteroAlphas returns the optimal single-round partition for heterogeneous
// nodes that all become available simultaneously, dispatched sequentially
// in slice order. It is AlphasFor on the table costs in slice order.
func HeteroAlphas(costs []NodeCost) ([]float64, error) {
	if err := validateCosts(costs); err != nil {
		return nil, err
	}
	return (&CostModel{costs: costs}).AlphasFor(identity(len(costs))), nil
}

// HeteroExecTime returns the optimal single-round execution time of a load
// σ on heterogeneous nodes that all become available at the same instant,
// dispatched sequentially in slice order — the generalisation of E(σ,n).
// It is ExecTimeFor on the table costs in slice order.
func HeteroExecTime(costs []NodeCost, sigma float64) (float64, error) {
	if sigma < 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return 0, fmt.Errorf("dlt: HeteroExecTime needs sigma >= 0, got %v: %w", sigma, errs.ErrBadConfig)
	}
	if err := validateCosts(costs); err != nil {
		return 0, err
	}
	return (&CostModel{costs: costs}).ExecTimeFor(identity(len(costs)), sigma), nil
}

// AlphasFor returns the optimal single-round partition over the nodes ids
// (non-empty, in dispatch order) when they all become available at the
// same instant. Equalising consecutive finish times gives the recurrence
//
//	α_{i+1} = α_i · Cps_i / (Cms_{i+1} + Cps_{i+1})
//
// whose uniform special case is the geometric αᵢ = βⁱ⁻¹·α₁ of
// Params.Alphas. Entries are positive and sum to 1 (up to rounding). The
// result is freshly allocated.
func (m *CostModel) AlphasFor(ids []int) []float64 {
	a := make([]float64, len(ids))
	a1 := 1 / (1 + m.chain(ids, a))
	for i := range a {
		a[i] *= a1
	}
	return a
}

// ExecTimeFor returns the optimal single-round execution time of a load σ
// on the nodes ids (non-empty, in dispatch order) when they all become
// available at the same instant. Under the optimal partition every node
// finishes simultaneously, so the makespan is the first node's
// send-plus-compute time
//
//	E = α₁·σ·(Cms₁ + Cps₁)
//
// which for a uniform table reduces to E(σ,n) = σ·Cms/(1−βⁿ). It does not
// allocate.
func (m *CostModel) ExecTimeFor(ids []int, sigma float64) float64 {
	a1 := 1 / (1 + m.chain(ids, nil))
	c := m.costs[ids[0]]
	return a1 * sigma * (c.Cms + c.Cps)
}

// chain evaluates the partition recurrence's running products
// Π_{j=2..i} Cps_{j-1}/(Cms_j + Cps_j) and returns their sum over i = 2..n.
// When prods is non-nil it receives the products (prods[0] = 1).
func (m *CostModel) chain(ids []int, prods []float64) float64 {
	if prods != nil {
		prods[0] = 1
	}
	prod, sum := 1.0, 0.0
	for i := 1; i < len(ids); i++ {
		c := m.costs[ids[i]]
		prod *= m.costs[ids[i-1]].Cps / (c.Cms + c.Cps)
		if prods != nil {
			prods[i] = prod
		}
		sum += prod
	}
	return sum
}

// HeteroMinNodesBound returns a safe lower bound on the number of nodes a
// task with data size σ needs to finish within the slack on a cluster with
// the given cost model: the homogeneous ñ_min bound evaluated at the
// model's componentwise-fastest coefficients. Because every real node is at
// least as slow, the true requirement can only be larger, so partitioners
// use the bound as the starting point of their upward node-count search.
// ok=false means the task is infeasible even on the optimistic cluster —
// and hence on the real one.
func HeteroMinNodesBound(m *CostModel, sigma, slack float64) (n int, ok bool) {
	f := m.Fastest()
	if f.Cms <= 0 {
		// A free link breaks the closed-form bound (β = 1); transmission
		// costs nothing in the optimistic cluster, so a single node needs
		// only its compute time and the bound degenerates to feasibility of
		// the slack itself.
		if slack <= 0 || math.IsNaN(slack) {
			return 0, false
		}
		return 1, true
	}
	return MinNodesBound(f.Params(), sigma, slack)
}
