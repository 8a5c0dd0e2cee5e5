package rt

// OPR is the baseline partitioner from the authors' RTAS'07 paper [22]:
// the Optimal Partitioning Rule for simultaneously allocated homogeneous
// nodes, *without* IIT utilisation. A task assigned n nodes cannot start
// until all n are free (time r_n); nodes released earlier are held idle
// until then — the Inserted Idle Times this paper eliminates. Its node
// count uses the same ñ_min(t) rule as IITDLT (the formulas coincide), so
// comparing the two isolates the value of utilising IITs.
//
// With AllNodes false this is OPR-MN (minimum-node assignment, the
// strongest baseline of [22]); with AllNodes true it is OPR-AN (always run
// on the whole cluster — no IITs by construction, but "rarely adopted in
// real-life clusters due to obvious drawbacks").
type OPR struct {
	AllNodes bool
}

// Name implements Partitioner.
func (o OPR) Name() string {
	if o.AllNodes {
		return "opr-an"
	}
	return "opr-mn"
}

// FastReject implements FastRejecter. OPR-MN shares the ñ_min(t) bound
// with IITDLT; OPR-AN always waits for the whole cluster, so the provable
// lower bound is anchored at the N-th (last) release time.
func (o OPR) FastReject(ctx *PlanContext, t *Task) bool {
	if !o.AllNodes {
		return ctx.FastRejectMinNodes(t)
	}
	return ctx.ProvablyLate(t, ctx.N)
}

// Plan implements Partitioner. Because every node starts at r_n and the
// partition equalises finish times, the estimate r_n + E(σ,n) is exact on
// any cost table.
func (o OPR) Plan(ctx *PlanContext, t *Task) (*Plan, error) {
	n0 := ctx.N
	if !o.AllNodes {
		var ok bool
		if n0, ok = ctx.MinNodes(t); !ok {
			return nil, ErrInfeasible
		}
	}
	absD := t.AbsDeadline()
	for n := n0; n <= ctx.N; n++ {
		ids, starts := clampedStarts(ctx, t, n)
		rn := starts[n-1]
		est := rn + ctx.Costs.ExecTimeFor(ids, t.Sigma)
		if est > absD+deadlineEps(absD) {
			// Like IITDLT, expand beyond ñ_min(t) when waiting for busy
			// nodes pushed the completion past the deadline — but OPR must
			// buy the speed-up with E(σ,n), never with the waiting time
			// itself.
			continue
		}
		// The task occupies each node from that node's own release (the
		// reservation that wastes the IIT) but only executes from rn, when
		// all n nodes are free simultaneously.
		reserved := 0.0
		for _, s := range starts {
			reserved += rn - s
		}
		return &Plan{
			Task:              t,
			Nodes:             ids,
			Starts:            starts,
			Release:           uniform(n, est),
			Alphas:            ctx.Costs.AlphasFor(ids),
			Est:               est,
			ReservedIdle:      reserved,
			SimultaneousStart: true,
			Rounds:            1,
		}, nil
	}
	return nil, ErrInfeasible
}
