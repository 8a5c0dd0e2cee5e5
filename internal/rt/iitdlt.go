package rt

import (
	"fmt"

	"rtdls/internal/core"
)

// IITDLT is the paper's DLT-based partitioner: it utilises Inserted Idle
// Times by starting a task on each processor as soon as that processor is
// released, partitioning the load via the heterogeneous-model analysis of
// Sec. 4.1.1 and assigning the task ñ_min nodes.
//
// Following the Fig. 2 pseudocode, ñ_min is evaluated at the current test
// time t ("n ← ñ_min(t)"), i.e. with slack A+D−t, *before* the start times
// are known; the safety net is the explicit admission check of the
// completion estimate against the absolute deadline (the Eq. 6 estimate
// Ê + r_n on a uniform cost table, the exact dispatch completion otherwise;
// see PlanContext.SingleRoundEst), which the scheduler performs on the plan
// returned here. This is where utilising
// IITs pays: when a task must wait for its later nodes, the early nodes
// compute during the wait, so Ê can undercut the no-IIT execution time E by
// far more than the ñ_min bound assumes — admitting tasks the OPR baseline
// must reject.
type IITDLT struct{}

// Name implements Partitioner.
func (IITDLT) Name() string { return "dlt-iit" }

// FastReject implements FastRejecter: the search starts at ñ_min(t), so a
// task is certainly rejected when the bound fails or the ñ_min earliest
// nodes are provably too late.
func (IITDLT) FastReject(ctx *PlanContext, t *Task) bool {
	return ctx.FastRejectMinNodes(t)
}

// Plan implements Partitioner.
func (IITDLT) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	n0, ok := ctx.MinNodes(t)
	if !ok {
		// Even starting immediately the deadline cannot be met (γ ≤ 0 or
		// the whole cluster is too small).
		return nil, ErrInfeasible
	}
	absD := t.AbsDeadline()
	for n := n0; n <= ctx.N; n++ {
		ids, starts := clampedStarts(ctx, t, n)
		m, err := core.NewOnNodes(ctx.Costs, ids, t.Sigma, starts)
		if err != nil {
			return nil, fmt.Errorf("rt: dlt-iit: building heterogeneous model: %w", err)
		}
		est, d, err := ctx.SingleRoundEst(m)
		if err != nil {
			return nil, fmt.Errorf("rt: dlt-iit: dispatching: %w", err)
		}
		if est > absD+deadlineEps(absD) {
			// ñ_min(t) underestimates the requirement when the task must
			// wait for busy nodes; allocate more until the estimate meets
			// the deadline.
			continue
		}
		pl, err := SingleRoundPlan(t, ids, m, est, d)
		if err != nil {
			return nil, fmt.Errorf("rt: dlt-iit: dispatching: %w", err)
		}
		return pl, nil
	}
	return nil, ErrInfeasible
}
