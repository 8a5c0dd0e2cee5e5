package rt

import (
	"errors"
	"testing"

	"rtdls/internal/core"
	"rtdls/internal/dlt"
)

// estCase plans one task on a 4-node cluster released at 0, 300, 600 and
// 900 under the given cost table, and returns the plan with the all-node
// model's Eq. 6 estimate and exact dispatch completion.
func estCase(t *testing.T, costs []dlt.NodeCost, relDeadline float64) (pl *Plan, est, exact float64, err error) {
	t.Helper()
	cm, cerr := dlt.NewCostModel(costs)
	if cerr != nil {
		t.Fatal(cerr)
	}
	avail := []float64{0, 300, 600, 900}
	m, merr := core.NewOnNodes(cm, []int{0, 1, 2, 3}, 200, avail)
	if merr != nil {
		t.Fatal(merr)
	}
	d, derr := m.Dispatch()
	if derr != nil {
		t.Fatal(derr)
	}
	ctx := &PlanContext{N: 4, View: NewAvailView(append([]float64(nil), avail...)), Costs: cm}
	task := &Task{ID: 1, Sigma: 200, RelDeadline: relDeadline}
	pl, err = IITDLT{}.Plan(ctx, task)
	return pl, m.EstCompletion(), d.Completion, err
}

// TestIITAdmissionEstimateRule pins the single-round admission rule of
// PlanContext.SingleRoundEst with a deadline that falls strictly between
// the exact dispatch completion and the Eq. 6 estimate r_n + Ê.
func TestIITAdmissionEstimateRule(t *testing.T) {
	uniform := []dlt.NodeCost{{Cms: 1, Cps: 100}, {Cms: 1, Cps: 100}, {Cms: 1, Cps: 100}, {Cms: 1, Cps: 100}}
	perNodeCms := []dlt.NodeCost{{Cms: 1, Cps: 100}, {Cms: 2, Cps: 100}, {Cms: 0.5, Cps: 100}, {Cms: 1.5, Cps: 100}}
	const between = 5600

	t.Run("uniform rejects against Eq. 6", func(t *testing.T) {
		pl, est, exact, err := estCase(t, uniform, between)
		if !(exact < between && between < est) {
			t.Fatalf("deadline %v not strictly between exact %v and estimate %v", float64(between), exact, est)
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("dlt-iit admitted against the exact completion on a uniform table: plan %+v, err %v", pl, err)
		}
	})

	t.Run("uniform accepts at Eq. 6", func(t *testing.T) {
		pl, est, _, err := estCase(t, uniform, 6000)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.Nodes) != 4 {
			t.Fatalf("allocated %d nodes, want 4", len(pl.Nodes))
		}
		if pl.Est != est {
			t.Fatalf("Est = %v, want EstCompletion() = %v", pl.Est, est)
		}
	})

	t.Run("per-node Cms admits against the exact completion", func(t *testing.T) {
		pl, est, exact, err := estCase(t, perNodeCms, between)
		if !(exact < between && between < est) {
			t.Fatalf("deadline %v not strictly between exact %v and estimate %v", float64(between), exact, est)
		}
		if err != nil {
			t.Fatalf("dlt-iit rejected a plan whose exact completion %v meets deadline %v: %v", exact, float64(between), err)
		}
		if pl.Est != exact {
			t.Fatalf("Est = %v, want the exact dispatch completion %v", pl.Est, exact)
		}
	})
}
