package dlt

import (
	"fmt"
	"math"

	"rtdls/internal/errs"
)

// Dispatch records the exact timeline of a single-round sequential dispatch
// of a partitioned divisible load: the head node sends chunk i to node i
// only after finishing the transmission to node i-1, and a chunk cannot be
// sent before its node is available. Node i computes its chunk immediately
// after receiving it.
//
// All slices are indexed by node position (the same order as the avail
// vector passed to SimulateDispatch, i.e. nodes sorted by available time).
type Dispatch struct {
	SendStart []float64 // b_i: when transmission of chunk i begins
	SendEnd   []float64 // f_i = b_i + αᵢ·σ·Cms: when node i has its data
	Finish    []float64 // f_i + αᵢ·σ·Cps: when node i finishes computing
	// Completion is the task completion time, max_i Finish[i].
	Completion float64
}

// SimulateDispatch computes the exact per-node timeline for distributing a
// load σ partitioned by alphas to homogeneous nodes with the given
// available times. It is SimulateFor on the uniform table of p.
//
// avail must be sorted in non-decreasing order (the transmission order is
// the node order, and the paper always transmits to the earliest-available
// node first). alphas must have the same length as avail, with non-negative
// entries; it need not sum to exactly 1 (callers may dispatch a fraction of
// a task, as the multi-round extension does).
//
// This is the machinery behind Theorem 4: the actual per-node finish times
// it returns are compared against the heterogeneous-model estimate.
func SimulateDispatch(p Params, sigma float64, avail, alphas []float64) (*Dispatch, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	costs := make([]NodeCost, len(avail))
	for i := range costs {
		costs[i] = NodeCost{Cms: p.Cms, Cps: p.Cps}
	}
	return SimulateDispatchHetero(costs, sigma, avail, alphas)
}

// SimulateDispatchHetero is SimulateDispatch over per-node coefficients:
// costs, avail and alphas are parallel, in dispatch order. It is
// SimulateFor on the table costs, dispatched in slice order.
func SimulateDispatchHetero(costs []NodeCost, sigma float64, avail, alphas []float64) (*Dispatch, error) {
	if err := validateCosts(costs); err != nil {
		return nil, err
	}
	return (&CostModel{costs: costs}).SimulateFor(identity(len(costs)), sigma, avail, alphas)
}

// SimulateFor computes the exact per-node timeline of a single-round
// dispatch to the nodes ids of the table, in slice order: node ids[i]
// becomes available at avail[i] (sorted non-decreasing) and receives the
// fraction alphas[i] of the load σ, shipped at its own Cms and computed at
// its own Cps. Every single-round timeline in the module — planners, the
// heterogeneous model's Dispatch, the service's commit check and the
// independent verifier — runs through this one loop.
func (m *CostModel) SimulateFor(ids []int, sigma float64, avail, alphas []float64) (*Dispatch, error) {
	n := len(ids)
	if n == 0 {
		return nil, fmt.Errorf("dlt: dispatch needs at least one node: %w", errs.ErrBadConfig)
	}
	if len(avail) != n || len(alphas) != n {
		return nil, fmt.Errorf("dlt: dispatch: %d nodes, %d avail times, %d alphas: %w",
			n, len(avail), len(alphas), errs.ErrBadConfig)
	}
	if sigma < 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("dlt: dispatch: invalid sigma %v: %w", sigma, errs.ErrBadConfig)
	}
	for i := 1; i < n; i++ {
		if avail[i] < avail[i-1] {
			return nil, fmt.Errorf("dlt: dispatch: avail times not sorted (avail[%d]=%v < avail[%d]=%v): %w",
				i, avail[i], i-1, avail[i-1], errs.ErrBadConfig)
		}
	}
	d := &Dispatch{
		SendStart:  make([]float64, n),
		SendEnd:    make([]float64, n),
		Finish:     make([]float64, n),
		Completion: math.Inf(-1), // max over finishes; times may be negative
	}
	linkFree := math.Inf(-1)
	for i, id := range ids {
		if alphas[i] < 0 {
			return nil, fmt.Errorf("dlt: dispatch: negative alpha[%d]=%v: %w", i, alphas[i], errs.ErrBadConfig)
		}
		c := m.costs[id]
		b := math.Max(avail[i], linkFree)
		send := alphas[i] * sigma * c.Cms
		comp := alphas[i] * sigma * c.Cps
		d.SendStart[i] = b
		d.SendEnd[i] = b + send
		d.Finish[i] = b + send + comp
		linkFree = d.SendEnd[i]
		if d.Finish[i] > d.Completion {
			d.Completion = d.Finish[i]
		}
	}
	return d, nil
}

// identity returns the ids 0..n-1: a table dispatched in its own order.
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
