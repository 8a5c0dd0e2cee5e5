package core

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"rtdls/internal/dlt"
)

// closedForm is the paper's homogeneous construction written out with its
// closed forms (Sec. 4.1.1), kept as the test reference for the single
// cost-table construction:
//
//	E      = σ·Cms / (1 − βⁿ)
//	CpsI_i = E/(E + r_n − r_i) · Cps                  (Eq. 1)
//	X_i    = CpsI_{i-1} / (Cms + CpsI_i),  α_i = Π X_j · α_1
//	Ê      = σ·Cms + α_n·σ·CpsI_n                       (Eq. 6)
func closedForm(p dlt.Params, sigma float64, avail []float64) (alphas, cpsI []float64, e, exec float64) {
	n := len(avail)
	a := append([]float64(nil), avail...)
	sort.Float64s(a)
	rn := a[n-1]
	e = sigma * p.Cms / (1 - math.Pow(p.Beta(), float64(n)))
	cpsI = make([]float64, n)
	for i, ri := range a {
		cpsI[i] = e / (e + rn - ri) * p.Cps
	}
	prods := make([]float64, n)
	prods[0] = 1
	prod, sum := 1.0, 0.0
	for i := 1; i < n; i++ {
		prod *= cpsI[i-1] / (p.Cms + cpsI[i])
		prods[i] = prod
		sum += prod
	}
	a1 := 1 / (1 + sum)
	alphas = make([]float64, n)
	for i := range prods {
		alphas[i] = prods[i] * a1
	}
	exec = sigma*p.Cms + alphas[n-1]*sigma*cpsI[n-1]
	return alphas, cpsI, e, exec
}

// TestConstructionMatchesClosedForm: on uniform cost tables, the single
// construction — through New and through the planners' NewOnNodes —
// reproduces the paper's homogeneous closed forms for α, CpsI, E and Ê.
//
// On the paper's range (N ≤ 16 nodes, Cps/Cms up to 1000; the baseline is
// 100) they agree to 1e-12 relative. Beyond it the reference itself is the
// weaker side: σ·Cms/(1−βⁿ) loses about ε/(1−βⁿ) relative accuracy as β
// approaches 1, and an error in E reaches α_i through the n-term product
// Π X_j. The wide range therefore checks 1e-10.
func TestConstructionMatchesClosedForm(t *testing.T) {
	ranges := []struct {
		name     string
		maxN     int
		maxRatio float64 // Cps/Cms drawn log-uniformly from [1, maxRatio]
		tol      float64
	}{
		{"paper", 16, 1000, 1e-12},
		{"wide", 64, 16000, 1e-10},
	}
	rng := rand.New(rand.NewPCG(41, 43))
	for _, r := range ranges {
		rel := func(got, want float64, what string, trial int) {
			t.Helper()
			if d := math.Abs(got - want); d > r.tol*math.Max(math.Abs(got), math.Abs(want)) {
				t.Fatalf("%s trial %d: %s = %v, closed form %v (rel diff %.3g)",
					r.name, trial, what, got, want, d/math.Abs(want))
			}
		}
		for trial := 0; trial < 2000; trial++ {
			cms := 0.05 + 8*rng.Float64()
			p := dlt.Params{Cms: cms, Cps: cms * math.Exp(rng.Float64()*math.Log(r.maxRatio))}
			sigma := 0.5 + 900*rng.Float64()
			n := 1 + rng.IntN(r.maxN)
			avail := make([]float64, n)
			cur := 1000 * rng.Float64()
			for i := range avail {
				avail[i] = cur
				switch rng.IntN(4) {
				case 0: // tie
				case 1: // gap far beyond the execution time
					cur += rng.Float64() * 100 * p.ExecTime(sigma, n)
				default:
					cur += rng.Float64() * rng.Float64() * p.ExecTime(sigma, n)
				}
			}
			wantA, wantC, wantE, wantExec := closedForm(p, sigma, avail)

			// The planners' path: a uniform table over more nodes than
			// the task uses, read by arbitrary node ids.
			cm, err := dlt.UniformCosts(p, n+3)
			if err != nil {
				t.Fatal(err)
			}
			ids := rng.Perm(n + 3)[:n]
			onNodes, err := NewOnNodes(cm, ids, sigma, avail)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := New(p, sigma, avail)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []*Model{onNodes, legacy} {
				rel(m.NoIITExecTime(), wantE, "E", trial)
				rel(m.ExecTime(), wantExec, "Ê", trial)
				rel(m.EstCompletion(), avail[n-1]+wantExec, "r_n + Ê", trial)
				for i := range wantA {
					rel(m.Alphas()[i], wantA[i], "α", trial)
					rel(m.CpsI()[i], wantC[i], "CpsI", trial)
				}
			}
		}
	}
}

// TestNewOnNodesValidation: the planners' constructor rejects what New
// would reject, plus unsorted starts and an id/start length mismatch.
func TestNewOnNodesValidation(t *testing.T) {
	cm, err := dlt.UniformCosts(baseline, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		ids    []int
		sigma  float64
		starts []float64
	}{
		{"zero sigma", []int{0}, 0, []float64{0}},
		{"no nodes", nil, 1, nil},
		{"length mismatch", []int{0, 1}, 1, []float64{0}},
		{"unsorted", []int{0, 1}, 1, []float64{5, 1}},
		{"NaN start", []int{0}, 1, []float64{math.NaN()}},
	}
	for _, c := range cases {
		if _, err := NewOnNodes(cm, c.ids, c.sigma, c.starts); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
