package rt

import (
	"math"

	"rtdls/internal/core"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
)

// ErrInfeasible is returned by partitioners when no assignment can meet the
// task's deadline; the schedulability test then fails and the new arrival
// is rejected (in a deployment, rejection triggers deadline renegotiation —
// the paper's footnote 1; see examples/admission). It is the shared
// errs.ErrInfeasible sentinel, so errors.Is matches across packages.
var ErrInfeasible = errs.ErrInfeasible

// PlanContext carries the cluster state a partitioner plans against.
type PlanContext struct {
	N     int            // cluster size
	Now   float64        // current time; starts are clamped to max(Now, task arrival)
	View  *AvailView     // tentative per-node release times
	Costs *dlt.CostModel // per-node cost coefficients, indexed by node id (required)
}

// SingleRoundEst returns the completion a single-round plan built on the
// model m is admitted against. This is the one place the admission rule
// is chosen:
//
//   - On a uniform cost table, the paper's Eq. 6 estimate r_n + Ê, which
//     Theorem 4 proves bounds the actual dispatch completion. d is nil:
//     the caller simulates the dispatch only for the plan it keeps.
//   - On a non-uniform table, the exactly simulated dispatch completion,
//     because Theorem 4 is proved only for a common Cms. d is that
//     simulation.
//
// Either way the admitted estimate bounds the actual completion, so the
// hard real-time guarantee holds.
func (ctx *PlanContext) SingleRoundEst(m *core.Model) (est float64, d *dlt.Dispatch, err error) {
	if ctx.Costs.Uniform() {
		return m.EstCompletion(), nil, nil
	}
	d, err = m.Dispatch()
	if err != nil {
		return 0, nil, err
	}
	return d.Completion, d, nil
}

// SingleRoundPlan returns the single-round plan of the model m on the
// nodes ids, admitted at est. Each node is released at its exact finish
// time: the linear cost model makes the dispatch timeline fully
// deterministic, so the head node knows precisely when every node frees
// up (and a node never finishes before its own start). d is the dispatch
// SingleRoundEst returned; when it is nil the dispatch is simulated here,
// so only the plan a partitioner keeps pays for it.
func SingleRoundPlan(t *Task, ids []int, m *core.Model, est float64, d *dlt.Dispatch) (*Plan, error) {
	if d == nil {
		var err error
		if d, err = m.Dispatch(); err != nil {
			return nil, err
		}
	}
	return &Plan{
		Task:    t,
		Nodes:   ids,
		Starts:  m.Avail(),
		Release: d.Finish,
		Alphas:  m.Alphas(),
		Est:     est,
		Rounds:  1,
	}, nil
}

// startFloor returns the earliest instant the task may occupy a node.
func (ctx *PlanContext) startFloor(t *Task) float64 {
	return math.Max(ctx.Now, t.Arrival)
}

// Partitioner is the framework's task-partitioning module (Decision #2)
// fused with the node-assignment rule (Decision #3): given the tentative
// cluster state it selects the nodes, start times, load fractions and the
// completion estimate for one task.
//
// Plan must not mutate the view — the scheduler applies the returned plan's
// releases itself after checking the deadline.
type Partitioner interface {
	// Name returns the partitioner's identifier (e.g. "dlt-iit").
	Name() string
	Plan(ctx *PlanContext, t *Task) (*Plan, error)
}

// FastRejecter is an optional Partitioner extension consulted by the
// scheduler before the full O(queue × plan) replan: FastReject reports
// whether Plan is *certain* to find no deadline-meeting assignment for t
// against the given committed cluster state. Implementations must be sound
// — a true return must imply the full admission test would reject t — and
// cheap: O(log n) against the availability index, never a partitioner run.
// The context's view carries the committed base state (no tentative
// assignments) when FastReject is called.
type FastRejecter interface {
	FastReject(ctx *PlanContext, t *Task) bool
}

// ClampedStarts materialises r_k = max(Release(node_k), A_i, now) for the k
// earliest-available nodes (Fig. 2's "set processor available times",
// clamped so replanned waiting tasks cannot start in the past). The
// returned slices are freshly allocated and owned by the caller; every
// partitioner, package multiround's included, selects nodes through it.
func (ctx *PlanContext) ClampedStarts(t *Task, k int) (ids []int, starts []float64) {
	ids = make([]int, k)
	starts = make([]float64, k)
	ctx.View.EarliestInto(ids, starts)
	floor := ctx.startFloor(t)
	for i, tm := range starts {
		starts[i] = math.Max(tm, floor)
	}
	return ids, starts
}

// clampedStarts is the in-package shorthand for ClampedStarts.
func clampedStarts(ctx *PlanContext, t *Task, k int) (ids []int, starts []float64) {
	return ctx.ClampedStarts(t, k)
}

// ProvablyLate reports whether any plan that (a) uses at least the k
// earliest-available eligible nodes and (b) transmits the whole load over
// the (fastest) link provably completes past t's deadline. Every
// partitioner's completion estimate strictly exceeds both max(floor, r_k)
// — the task cannot finish before its latest required node frees up — and
// floor + σ·Cms — the load must cross the network before the last byte
// computes — so when either lower bound already reaches the deadline (with
// the same ε tolerance the admission check uses), the full test is certain
// to reject. O(log n): one order-statistic query against the index.
func (ctx *PlanContext) ProvablyLate(t *Task, k int) bool {
	absD := t.AbsDeadline()
	floor := ctx.startFloor(t)
	lb := math.Max(floor, ctx.View.EarliestTimeAt(k))
	if send := floor + t.Sigma*ctx.Costs.Fastest().Cms; send > lb {
		lb = send
	}
	return lb >= absD+deadlineEps(absD)
}

// MinNodes returns the ñ_min(t) bound the node searches of IITDLT, OPR-MN
// and multiround start from (Fig. 2's "n ← ñ_min(t)", evaluated at the
// cost table's componentwise-fastest coefficients). ok is false when even
// starting immediately the deadline cannot be met: γ ≤ 0, or ñ_min > N.
func (ctx *PlanContext) MinNodes(t *Task) (n int, ok bool) {
	n, ok = dlt.HeteroMinNodesBound(ctx.Costs, t.Sigma, t.AbsDeadline()-ctx.startFloor(t))
	return n, ok && n <= ctx.N
}

// FastRejectMinNodes is the shared FastReject implementation for
// partitioners whose node search starts at the ñ_min(t) bound (IITDLT,
// OPR-MN, multiround): infeasible when the bound itself fails (exactly the
// pre-loop check Plan performs), or when even the ñ_min earliest nodes are
// provably too late.
func (ctx *PlanContext) FastRejectMinNodes(t *Task) bool {
	n0, ok := ctx.MinNodes(t)
	return !ok || ctx.ProvablyLate(t, n0)
}

// deadlineEps returns the absolute tolerance for comparing a completion
// estimate against an absolute deadline, scaled to the magnitudes involved
// so the mathematically guaranteed inequalities survive floating point.
func deadlineEps(absDeadline float64) float64 {
	return 1e-9 * math.Max(1, math.Abs(absDeadline))
}

// uniform returns a slice of n copies of v.
func uniform(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
