package core

import "math"

// This file exposes the paper's intermediate results (Assertion 1, Lemma 2,
// Assertion 3, Theorem 4) as checkable predicates. They are used by the
// property-based tests to validate the implementation against the paper's
// proofs, and by callers that want defence-in-depth verification of a
// schedule before committing it.

// relEps is the relative tolerance used when verifying the paper's
// inequalities under floating-point arithmetic.
const relEps = 1e-9

func leq(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return a <= b+relEps*scale
}

// CheckAssertion1 verifies α_i < α_1 for i = 2..n (Assertion 1): the
// earliest-available processor always receives the largest fraction.
func (m *Model) CheckAssertion1() bool {
	for i := 1; i < len(m.alphas); i++ {
		if !leq(m.alphas[i], m.alphas[0]) {
			return false
		}
	}
	return true
}

// CheckLemma2 verifies α_i < (Cps_1/Cps_i)·α_1 for i = 2..n (Lemma 2).
func (m *Model) CheckLemma2() bool {
	for i := 1; i < len(m.alphas); i++ {
		if !leq(m.alphas[i], m.cpsI[0]/m.cpsI[i]*m.alphas[0]) {
			return false
		}
	}
	return true
}

// CheckAssertion3 verifies r_n − r_i ≥ (Cps/Cps_i)·Ê − Ê (Assertion 3),
// with each node's own base Cps for heterogeneous models.
func (m *Model) CheckAssertion3() bool {
	for i, ri := range m.avail {
		lhs := m.rn - ri
		rhs := m.cost(i).Cps/m.cpsI[i]*m.exec - m.exec
		if !leq(rhs, lhs) {
			return false
		}
	}
	return true
}

// CheckEq9 verifies Ê(σ,n) ≤ E(σ,n) (Eq. 9): utilising inserted idle times
// never increases the execution-time estimate.
func (m *Model) CheckEq9() bool {
	return leq(m.exec, m.e)
}

// CheckTheorem4 simulates the actual dispatch and verifies that every
// processor finishes no later than the estimated completion time
// (Theorem 4). It returns the worst observed slack
// (estimate − latest actual finish, ≥ 0 when the theorem holds).
func (m *Model) CheckTheorem4() (slack float64, ok bool) {
	d, err := m.Dispatch()
	if err != nil {
		return 0, false
	}
	est := m.EstCompletion()
	slack = est - d.Completion
	return slack, leq(d.Completion, est)
}
