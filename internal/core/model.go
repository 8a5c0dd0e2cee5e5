// Package core implements the primary contribution of Lin, Lu, Deogun and
// Goddard, "Real-Time Divisible Load Scheduling with Different Processor
// Available Times" (TR-UNL-CSE-2007-0013 / ICPP 2007): the transformation
// of a homogeneous cluster whose processors become available to a task at
// different times into an equivalent heterogeneous cluster in which all
// processors are allocated simultaneously, and the DLT analysis on that
// model — the load partition α (Eqs. 4–5), the execution-time estimate
// Ê(σ,n) (Eq. 6), the completion-time estimate r_n + Ê (Eq. 7), and the
// Theorem-4 guarantee that the actual completion in the homogeneous cluster
// never exceeds the estimate.
package core

import (
	"fmt"
	"math"
	"sort"

	"rtdls/internal/dlt"
)

// Model is the heterogeneous cluster model constructed for one task from
// the available times of the processors assigned to it (Sec. 4.1.1 A of
// the paper). Processor i (0-based here; P_{i+1} in the paper) becomes
// available at Avail[i]; in the model all n processors are allocated at
// Rn = Avail[n-1] and processor i is given the inflated power
//
//	CpsI[i] = E/(E + Rn − Avail[i]) · Cps_i          (Eq. 1)
//
// where E = E(σ,n) is the no-IIT execution time on the same n nodes and
// Cps_i the processor's own compute cost. Link costs are unchanged (Eq. 2).
// There is one construction: the paper's homogeneous cluster is the case
// where every processor has the same coefficients. A Model is immutable
// after construction.
type Model struct {
	sigma float64
	avail []float64 // sorted non-decreasing, len n ≥ 1
	rn    float64   // avail[n-1]
	e     float64   // E(σ,n): no-IIT execution time
	cpsI  []float64 // heterogeneous unit processing costs (Eq. 1)

	alphas []float64 // optimal partition on the model (Eqs. 4–5)
	exec   float64   // Ê(σ,n) (Eq. 6)

	// Processor i's own coefficients are cm.At(ids[i]).
	cm  *dlt.CostModel
	ids []int
	// p is the scalar pair New was given; the zero value for models built
	// over a cost table (NewHetero, NewOnNodes).
	p dlt.Params
}

// New constructs the heterogeneous model for a task of data size sigma
// whose assigned homogeneous processors have the given available times:
// NewHetero with every processor at the coefficients p. The avail slice
// is copied and sorted; it must be non-empty and free of NaN/Inf, and
// sigma must be positive and finite.
func New(p dlt.Params, sigma float64, avail []float64) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	costs := make([]dlt.NodeCost, len(avail))
	for i := range costs {
		costs[i] = dlt.NodeCost{Cms: p.Cms, Cps: p.Cps}
	}
	m, err := NewHetero(costs, sigma, avail)
	if err != nil {
		return nil, err
	}
	m.p = p
	return m, nil
}

// NewHetero constructs the availability-transformation model for a cluster
// that is *already* heterogeneous: processor i has its own linear cost
// coefficients costs[i] = (Cms_i, Cps_i) and becomes available at avail[i]
// (the two slices are parallel and are sorted together by available time).
//
// Each node's own Cps_i is inflated by Eq. 1, links keep their own Cms_i
// (Eq. 2), and the partition solves the Sec. 4.1.1 B recursion over the
// per-node link costs, X_i = CpsI_{i-1}/(Cms_i + CpsI_i), with
// Ê = σ·Σ_j α_j·Cms_j + α_n·σ·CpsI_n. This is the one construction behind
// New and NewOnNodes too: with every cost pair equal it is the paper's
// original model.
//
// The paper's Theorem 4 is proved for a common Cms; with per-node link
// costs the Ê bound is no longer guaranteed, so schedulers admit
// heterogeneous plans against the exact Dispatch timeline instead of
// EstCompletion. Ê remains exact for the model cluster itself (all model
// nodes finish simultaneously at Rn + Ê).
//
// Every accessor of the returned model is in processor order — sorted by
// available time, ties broken by input position; use Order to map results
// back to the caller's indexing.
func NewHetero(costs []dlt.NodeCost, sigma float64, avail []float64) (*Model, error) {
	n := len(avail)
	if n == 0 {
		return nil, fmt.Errorf("core: need at least one processor available time")
	}
	if len(costs) != n {
		return nil, fmt.Errorf("core: %d node costs for %d available times", len(costs), n)
	}
	cm, err := dlt.NewCostModel(costs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := checkSigma(sigma); err != nil {
		return nil, err
	}
	for i, r := range avail {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("core: avail[%d] = %v is not a finite time", i, r)
		}
	}
	// Sort processors by available time, stably, so each keeps its own
	// coefficients: position i is input index idx[i].
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return avail[idx[x]] < avail[idx[y]] })
	sa := make([]float64, n)
	for i, j := range idx {
		sa[i] = avail[j]
	}
	m := &Model{sigma: sigma, avail: sa, cm: cm, ids: idx}
	m.build()
	return m, nil
}

// NewOnNodes constructs the model for a task placed on the nodes ids of
// the cost table cm, where node ids[i] becomes available at starts[i].
// starts must be sorted non-decreasing and finite, with one entry per id.
// Neither slice is copied: the model shares them with the caller, who must
// not modify them afterwards. This is the planners' constructor — it reads
// coefficients by node id, so a plan step costs no table copy.
func NewOnNodes(cm *dlt.CostModel, ids []int, sigma float64, starts []float64) (*Model, error) {
	if err := checkSigma(sigma); err != nil {
		return nil, err
	}
	n := len(starts)
	if n == 0 {
		return nil, fmt.Errorf("core: need at least one processor available time")
	}
	if len(ids) != n {
		return nil, fmt.Errorf("core: %d node ids for %d available times", len(ids), n)
	}
	for i, r := range starts {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("core: avail[%d] = %v is not a finite time", i, r)
		}
		if i > 0 && r < starts[i-1] {
			return nil, fmt.Errorf("core: avail times not sorted at %d", i)
		}
	}
	m := &Model{sigma: sigma, avail: starts, cm: cm, ids: ids}
	m.build()
	return m, nil
}

func checkSigma(sigma float64) error {
	if !(sigma > 0) || math.IsInf(sigma, 0) {
		return fmt.Errorf("core: sigma must be positive and finite, got %v", sigma)
	}
	return nil
}

// build evaluates the construction on the sorted processors. E is the
// simultaneous-start optimum on the same nodes (dlt.CostModel.ExecTimeFor),
// each compute cost is inflated by Eq. 1, and the partition solves the
// recursion of Sec. 4.1.1 B over the per-node link costs:
//
//	X_i = CpsI_{i-1} / (Cms_i + CpsI_i)       for i = 2..n
//	α_1 = 1 / (1 + Σ_{i=2..n} Π_{j=2..i} X_j)
//	α_i = Π_{j=2..i} X_j · α_1
//	Ê   = σ·Σ_j α_j·Cms_j + α_n·σ·CpsI_n       (Eq. 6; CpsI_n = Cps_n)
//
// With a common Cms, Σ_j α_j·Cms_j = Cms and this is the paper's
// homogeneous recurrence.
func (m *Model) build() {
	n := len(m.avail)
	m.rn = m.avail[n-1]
	m.e = m.cm.ExecTimeFor(m.ids, m.sigma)
	buf := make([]float64, 2*n)
	m.cpsI, m.alphas = buf[:n:n], buf[n:]
	for i, ri := range m.avail {
		m.cpsI[i] = m.e / (m.e + m.rn - ri) * m.cost(i).Cps
	}
	// α holds the running products Π X_j until α_1 is known.
	m.alphas[0] = 1
	prod, sum := 1.0, 0.0
	for i := 1; i < n; i++ {
		prod *= m.cpsI[i-1] / (m.cost(i).Cms + m.cpsI[i])
		m.alphas[i] = prod
		sum += prod
	}
	a1 := 1 / (1 + sum)
	sendSum := 0.0
	for i := range m.alphas {
		m.alphas[i] *= a1
		sendSum += m.alphas[i] * m.cost(i).Cms
	}
	m.exec = m.sigma*sendSum + m.alphas[n-1]*m.sigma*m.cpsI[n-1]
}

// cost returns processor i's own coefficients.
func (m *Model) cost(i int) dlt.NodeCost { return m.cm.At(m.ids[i]) }

// N returns the number of processors in the model.
func (m *Model) N() int { return len(m.avail) }

// Sigma returns the task data size the model was built for.
func (m *Model) Sigma() float64 { return m.sigma }

// Params returns the homogeneous cluster cost parameters New was given.
// For a model built over a cost table it is the zero value; use NodeCosts
// instead.
func (m *Model) Params() dlt.Params { return m.p }

// Rn returns r_n, the latest processor available time — the instant at
// which all n heterogeneous nodes are considered allocated.
func (m *Model) Rn() float64 { return m.rn }

// NoIITExecTime returns E(σ,n), the execution time when the inserted idle
// times are not utilised (the [22] baseline and the E of Eq. 1).
func (m *Model) NoIITExecTime() float64 { return m.e }

// Avail returns the sorted processor available times. The returned slice
// is shared with the model and must not be modified.
func (m *Model) Avail() []float64 { return m.avail }

// CpsI returns the heterogeneous unit processing costs Cps_i of Eq. 1,
// in processor order. The slice is shared with the model and must not be
// modified. CpsI[n-1] always equals the last processor's own Cps; on a
// homogeneous cluster the sequence is non-decreasing
// (earlier-available processors are modelled as more powerful).
func (m *Model) CpsI() []float64 { return m.cpsI }

// Alphas returns the data distribution vector α of Eqs. 4–5: Alphas()[i] is
// the fraction of the load assigned to the processor with the i-th earliest
// available time. Entries are positive and sum to 1 (up to rounding). The
// slice is shared with the model and must not be modified.
func (m *Model) Alphas() []float64 { return m.alphas }

// ExecTime returns Ê(σ,n) of Eq. 6, the execution time of the task in the
// heterogeneous model, measured from Rn. Eq. 9 guarantees
// ExecTime() ≤ NoIITExecTime().
func (m *Model) ExecTime() float64 { return m.exec }

// EstCompletion returns the completion-time estimate C(n) = Rn + Ê(σ,n)
// (Eq. 7). By Theorem 4, executing the α-partition on the homogeneous
// cluster at the original staggered available times completes no later than
// this estimate, so a scheduler may admit tasks against it.
func (m *Model) EstCompletion() float64 { return m.rn + m.exec }

// Dispatch simulates the actual sequential dispatch of the α-partition on
// the real processors at the staggered available times, returning exact
// per-node send and finish times. On a homogeneous cluster Theorem 4
// asserts Dispatch().Completion ≤ EstCompletion().
func (m *Model) Dispatch() (*dlt.Dispatch, error) {
	return m.cm.SimulateFor(m.ids, m.sigma, m.avail, m.alphas)
}

// MakespanFor evaluates the heterogeneous model's execution time for an
// arbitrary load partition: all n nodes are allocated at Rn, chunks are
// transmitted sequentially in node order, and node i computes its chunk at
// unit cost CpsI[i]. The model's own Alphas() minimise this quantity (all
// nodes finish simultaneously — Eq. 3); MakespanFor lets tests and analyses
// verify that optimality directly. It panics if len(alphas) != N().
func (m *Model) MakespanFor(alphas []float64) float64 {
	if len(alphas) != len(m.avail) {
		panic(fmt.Sprintf("core: MakespanFor: %d alphas for %d nodes", len(alphas), len(m.avail)))
	}
	sendEnd := 0.0
	makespan := 0.0
	for i, a := range alphas {
		sendEnd += a * m.sigma * m.cost(i).Cms
		finish := sendEnd + a*m.sigma*m.cpsI[i]
		if finish > makespan {
			makespan = finish
		}
	}
	return makespan
}

// Hetero reports whether the model was built over a per-node cost table
// (NewHetero, NewOnNodes) rather than the paper's single homogeneous pair
// (New).
func (m *Model) Hetero() bool { return m.p == (dlt.Params{}) }

// NodeCosts returns the per-node cost coefficients in processor order
// (sorted by available time), or nil for a model built with New. The
// result is freshly allocated.
func (m *Model) NodeCosts() []dlt.NodeCost {
	if !m.Hetero() {
		return nil
	}
	out := make([]dlt.NodeCost, len(m.ids))
	for i := range out {
		out[i] = m.cost(i)
	}
	return out
}

// Order maps each processor position back to the caller's input: every
// accessor (Avail, NodeCosts, CpsI, Alphas, the Dispatch timelines) is
// ordered by available time, and position i corresponds to index
// Order()[i] of the avail/costs slices passed to NewHetero (or to the node
// id Order()[i] for NewOnNodes). The stable sort breaks availability ties
// by input index. Order returns nil for models built with New, where all
// processors are interchangeable. The slice is shared with the model and
// must not be modified.
func (m *Model) Order() []int {
	if !m.Hetero() {
		return nil
	}
	return m.ids
}
