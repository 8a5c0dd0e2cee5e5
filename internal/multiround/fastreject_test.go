package multiround

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/rt"
)

// planOnly hides the FastRejecter extension, forcing the scheduler down
// the full plan-everything path — the control arm for the decision
// equivalence test below. (The indexed-view half of the hot path is proven
// bit for bit inside package rt; here we isolate the fast-reject half for
// the fifth algorithm, which rt's in-package suite cannot construct
// because multiround imports rt.)
type planOnly struct{ p Partitioner }

func (w planOnly) Name() string                                           { return w.p.Name() }
func (w planOnly) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) { return w.p.Plan(ctx, t) }

func mrCluster(t *testing.T, n int, hetero bool) *cluster.Cluster {
	t.Helper()
	if !hetero {
		cl, err := cluster.New(n, baseline)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	costs := make([]dlt.NodeCost, n)
	for i := range costs {
		costs[i] = dlt.NodeCost{Cms: 0.7 + 0.04*float64(i%6), Cps: 60 + 11*float64((i*5)%9)}
	}
	cl, err := cluster.NewHetero(costs)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestFastRejectDecisionEquivalence drives a multiround scheduler with the
// fast-reject enabled against one with it hidden, over identical bursty
// streams salted with hopeless tasks, and requires identical decisions,
// plans, stats and commit sequences.
func TestFastRejectDecisionEquivalence(t *testing.T) {
	for _, hetero := range []bool{false, true} {
		for _, rounds := range []int{1, 4} {
			p, err := New(rounds)
			if err != nil {
				t.Fatal(err)
			}
			const n = 10
			a := rt.NewScheduler(mrCluster(t, n, hetero), rt.EDF, p)
			b := rt.NewScheduler(mrCluster(t, n, hetero), rt.EDF, planOnly{p})
			rng := rand.New(rand.NewPCG(uint64(rounds), 99))
			now := 0.0
			for i := 0; i < 400; i++ {
				now += rng.ExpFloat64() * 500
				sigma := 1 + 300*rng.Float64()
				var d float64
				switch rng.IntN(4) {
				case 0:
					d = sigma * baseline.Cms * (0.2 + 0.7*rng.Float64())
				case 1:
					d = baseline.ExecTime(sigma, n) * (0.9 + 0.3*rng.Float64())
				default:
					d = 1500 + 6000*rng.Float64()
				}
				if d <= 0 {
					d = 1
				}
				ta := rt.Task{ID: int64(i + 1), Arrival: now, Sigma: sigma, RelDeadline: d}
				tb := ta
				oka, ea := a.Submit(&ta, now)
				okb, eb := b.Submit(&tb, now)
				if oka != okb || (ea == nil) != (eb == nil) {
					t.Fatalf("hetero=%v rounds=%d step %d: Submit diverges: (%v,%v) vs (%v,%v)",
						hetero, rounds, i, oka, ea, okb, eb)
				}
				pa, ea := a.CommitDue(now)
				pb, eb := b.CommitDue(now)
				if (ea == nil) != (eb == nil) || len(pa) != len(pb) {
					t.Fatalf("hetero=%v rounds=%d step %d: CommitDue diverges", hetero, rounds, i)
				}
				for j := range pa {
					if pa[j].Task.ID != pb[j].Task.ID ||
						!slices.Equal(pa[j].Nodes, pb[j].Nodes) ||
						!slices.Equal(pa[j].Release, pb[j].Release) ||
						pa[j].Est != pb[j].Est {
						t.Fatalf("hetero=%v rounds=%d step %d: committed plan %d diverges", hetero, rounds, i, j)
					}
				}
			}
			if sa, sb := a.Stats(), b.Stats(); sa != sb {
				t.Fatalf("hetero=%v rounds=%d: stats diverge: %+v vs %+v", hetero, rounds, sa, sb)
			}
			if sa := a.Stats(); sa.Accepts == 0 || sa.Rejects == 0 {
				t.Fatalf("degenerate stream: %+v", sa)
			}
		}
	}
}

// TestFastRejectSoundness pins the property directly: when FastReject
// fires on a committed state, the full Plan must reject (ErrInfeasible or
// an estimate past the deadline tolerance).
func TestFastRejectSoundness(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 31))
	for _, hetero := range []bool{false, true} {
		for _, rounds := range []int{1, 2, 8} {
			p, err := New(rounds)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 400; trial++ {
				n := 2 + rng.IntN(12)
				cl := mrCluster(t, n, hetero)
				avail := make([]float64, n)
				for i := range avail {
					avail[i] = rng.Float64() * 8000
				}
				ctx := rt.PlanContext{N: n, Now: rng.Float64() * 2000,
					View: rt.NewAvailView(avail), Costs: cl.Costs()}
				task := &rt.Task{ID: 1, Arrival: ctx.Now * rng.Float64(),
					Sigma: 1 + 400*rng.Float64(), RelDeadline: 10 + 7000*rng.Float64()}
				if !p.FastReject(&ctx, task) {
					continue
				}
				pl, err := p.Plan(&ctx, task)
				if err == rt.ErrInfeasible {
					continue
				}
				if err != nil {
					t.Fatalf("rounds=%d hetero=%v: FastReject fired but Plan hard-errored: %v", rounds, hetero, err)
				}
				absD := task.AbsDeadline()
				if pl.Est > absD+1e-9*math.Max(1, math.Abs(absD)) {
					continue
				}
				t.Fatalf("rounds=%d hetero=%v: FastReject fired but the full path admits (Est=%v absD=%v task=%+v avail=%v)",
					rounds, hetero, pl.Est, absD, task, avail)
			}
		}
	}
}
