package rt

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refModel is an independent full-sort reference implementation of the
// AvailView contract: the differential and fuzz suites drive it in
// lockstep with the treap index (and with the view's own refMode hook) and
// require identical output for every query.
type refModel struct {
	base  []float64 // committed base snapshot
	times []float64 // base + tentative assignments
	elig  []bool
}

func newRefModel(times []float64) *refModel {
	m := &refModel{}
	m.reset(times)
	return m
}

func (m *refModel) reset(times []float64) {
	m.base = append(m.base[:0], times...)
	m.times = append(m.times[:0], times...)
	m.elig = nil
}

func (m *refModel) setEligible(elig []bool) { m.elig = elig }

func (m *refModel) eligible() int {
	if m.elig == nil {
		return len(m.times)
	}
	n := 0
	for _, e := range m.elig {
		if e {
			n++
		}
	}
	return n
}

func (m *refModel) apply(ids []int, rel []float64) {
	for i, id := range ids {
		m.times[id] = rel[i]
	}
}

func (m *refModel) rollback() { copy(m.times, m.base) }

func (m *refModel) commitBase(ids []int, rel []float64) {
	for i, id := range ids {
		m.base[id] = rel[i]
		m.times[id] = rel[i]
	}
}

func (m *refModel) earliest(k int) (ids []int, times []float64) {
	order := make([]int, len(m.times))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if m.elig != nil && m.elig[a] != m.elig[b] {
			return m.elig[a]
		}
		if m.times[a] != m.times[b] {
			return m.times[a] < m.times[b]
		}
		return a < b
	})
	ids = order[:k]
	times = make([]float64, k)
	for i, id := range ids {
		times[i] = m.times[id]
	}
	return ids, times
}

// driveAvailView interprets data as an op stream over an AvailView, a
// second view pinned to refMode, and the independent reference model, and
// fails the moment any query diverges. Times are drawn from a coarse grid
// so ties (the id tie-break) occur constantly, and apply batches range
// from one node to the whole cluster, covering both the
// few-dirty-nodes regime and the everything-retimed regime that used to
// straddle the old implementation's len(dirty)*4 >= n full-resort
// threshold.
func driveAvailView(t *testing.T, data []byte) {
	t.Helper()
	off := 0
	next := func() byte {
		if off >= len(data) {
			return 0
		}
		b := data[off]
		off++
		return b
	}
	mkTime := func() float64 { return float64(int(next())%48-8) * 0.5 }

	n := 2 + int(next())%32
	base := make([]float64, n)
	for i := range base {
		base[i] = mkTime()
	}
	v := NewAvailView(append([]float64(nil), base...))
	vr := NewAvailView(append([]float64(nil), base...))
	vr.refMode = true
	model := newRefModel(base)

	check := func(k int) {
		wantIDs, wantTimes := model.earliest(k)
		for _, view := range []*AvailView{v, vr} {
			ids, times := view.Earliest(k)
			if !slices.Equal(ids, wantIDs) || !slices.Equal(times, wantTimes) {
				t.Fatalf("Earliest(%d) refMode=%v:\n got  %v %v\n want %v %v\n(times=%v elig=%v)",
					k, view.refMode, ids, times, wantIDs, wantTimes, model.times, model.elig)
			}
			gotIDs := make([]int, k)
			gotTimes := make([]float64, k)
			view.EarliestInto(gotIDs, gotTimes)
			if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotTimes, wantTimes) {
				t.Fatalf("EarliestInto(%d) refMode=%v: got %v %v want %v %v",
					k, view.refMode, gotIDs, gotTimes, wantIDs, wantTimes)
			}
			if at := view.EarliestTimeAt(k); at != wantTimes[k-1] {
				t.Fatalf("EarliestTimeAt(%d) refMode=%v: got %v want %v", k, view.refMode, at, wantTimes[k-1])
			}
		}
	}

	pending := false
	for steps := 0; steps < 512 && off < len(data); steps++ {
		switch next() % 8 {
		case 0: // Reset to a fresh snapshot
			for i := range base {
				base[i] = mkTime()
			}
			v.Reset(append([]float64(nil), base...))
			vr.Reset(append([]float64(nil), base...))
			vr.refMode = true
			model.reset(base)
			pending = false
		case 1: // SetEligible with a random mask (at least one node up)
			elig := make([]bool, n)
			any := false
			for i := range elig {
				elig[i] = next()%4 != 0
				any = any || elig[i]
			}
			if !any {
				elig[int(next())%n] = true
			}
			v.SetEligible(elig)
			vr.SetEligible(elig)
			model.setEligible(elig)
		case 2: // Apply a tentative batch (duplicates allowed)
			m := 1 + int(next())%n
			ids := make([]int, m)
			rel := make([]float64, m)
			for j := range ids {
				ids[j] = int(next()) % n
				rel[j] = mkTime()
			}
			v.Apply(ids, rel)
			vr.Apply(ids, rel)
			model.apply(ids, rel)
			pending = true
		case 3, 4: // query a random prefix
			check(1 + int(next())%v.Eligible())
		case 5: // order-statistic query without materialising
			k := 1 + int(next())%v.Eligible()
			_, wantTimes := model.earliest(k)
			if at := v.EarliestTimeAt(k); at != wantTimes[k-1] {
				t.Fatalf("EarliestTimeAt(%d): got %v want %v (times=%v elig=%v)",
					k, at, wantTimes[k-1], model.times, model.elig)
			}
		case 6: // Rollback to base
			v.Rollback()
			vr.Rollback()
			model.rollback()
			pending = false
		case 7: // CommitBase (requires no tentative assignments)
			if pending {
				v.Rollback()
				vr.Rollback()
				model.rollback()
				pending = false
			}
			m := 1 + int(next())%n
			ids := make([]int, m)
			rel := make([]float64, m)
			for j := range ids {
				ids[j] = int(next()) % n
				rel[j] = mkTime()
			}
			v.CommitBase(ids, rel)
			vr.CommitBase(ids, rel)
			model.commitBase(ids, rel)
		}
	}
	check(v.Eligible())
	v.Rollback()
	vr.Rollback()
	model.rollback()
	check(v.Eligible())
}

// TestAvailViewDifferential drives long random op sequences over the
// indexed view, its refMode full-sort twin and the independent reference
// model, across a spread of cluster sizes and seeds.
func TestAvailViewDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 80+rng.Intn(2000))
		rng.Read(data)
		driveAvailView(t, data)
	}
}

// FuzzAvailView is the fuzz entry over the same differential driver,
// registered in the Makefile FUZZ_PKGS CI smoke.
func FuzzAvailView(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 10, 20, 30, 40, 50, 2, 1, 7, 3, 0})
	f.Add([]byte{31, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
		16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
		2, 5, 9, 0, 3, 1, 6, 7, 12, 40, 3, 2, 5, 5, 5})
	rng := rand.New(rand.NewSource(41))
	seed := make([]byte, 300)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		driveAvailView(t, data)
	})
}

// TestAvailViewEarliestNoAliasing is the regression test for the Earliest
// aliasing contract: slices returned by one Earliest call must survive
// later Apply and Earliest calls unchanged. The pre-index implementation
// returned aliases of its sort buffers and the next query's in-place
// compaction silently rewrote them under the caller.
func TestAvailViewEarliestNoAliasing(t *testing.T) {
	v := NewAvailView([]float64{5, 1, 3, 2, 4})
	ids, times := v.Earliest(3)
	wantIDs := append([]int(nil), ids...)
	wantTimes := append([]float64(nil), times...)

	// Retime one of the held nodes and query again: the compaction/repair
	// work of the second query must not leak into the held slices.
	v.Apply([]int{1}, []float64{100})
	v.Earliest(3)
	if !slices.Equal(ids, wantIDs) || !slices.Equal(times, wantTimes) {
		t.Fatalf("Earliest results mutated by later Apply+Earliest:\n got  %v %v\n want %v %v",
			ids, times, wantIDs, wantTimes)
	}
}

// TestAvailViewRollbackRestoresBase covers the undo log: any interleaving
// of Apply batches is fully reversed by one Rollback.
func TestAvailViewRollbackRestoresBase(t *testing.T) {
	base := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	v := NewAvailView(append([]float64(nil), base...))
	wantIDs, wantTimes := v.Earliest(8)
	v.Apply([]int{1, 3, 5}, []float64{50, 60, 70})
	v.Apply([]int{1, 0}, []float64{80, 90})
	v.Rollback()
	ids, times := v.Earliest(8)
	if !slices.Equal(ids, wantIDs) || !slices.Equal(times, wantTimes) {
		t.Fatalf("Rollback did not restore base order: got %v %v want %v %v", ids, times, wantIDs, wantTimes)
	}
	if !slices.Equal(v.Times(), base) {
		t.Fatalf("Rollback did not restore base times: got %v want %v", v.Times(), base)
	}

	// An undo log longer than the node count takes the rebuild path: the
	// replay rewrites times and the index is rebuilt on the next query.
	for i := 0; i < 3*len(base); i++ {
		v.Apply([]int{i % len(base), (i * 5) % len(base)}, []float64{float64(100 + i), float64(200 - i)})
	}
	if got := len(v.undoID); got <= len(base) {
		t.Fatalf("undo log holds %d entries, want more than %d nodes", got, len(base))
	}
	v.Rollback()
	if got := v.EarliestTimeAt(3); got != wantTimes[2] {
		t.Fatalf("EarliestTimeAt(3) after long-log Rollback = %v, want %v", got, wantTimes[2])
	}
	ids, times = v.Earliest(8)
	if !slices.Equal(ids, wantIDs) || !slices.Equal(times, wantTimes) {
		t.Fatalf("long-log Rollback did not restore base order: got %v %v want %v %v", ids, times, wantIDs, wantTimes)
	}
	if !slices.Equal(v.Times(), base) {
		t.Fatalf("long-log Rollback did not restore base times: got %v want %v", v.Times(), base)
	}
}

// TestAvailViewCommitBaseSticks covers the base-sync path: committed
// release times survive subsequent Rollbacks.
func TestAvailViewCommitBaseSticks(t *testing.T) {
	v := NewAvailView([]float64{0, 0, 0, 0})
	v.Apply([]int{0, 1}, []float64{10, 20})
	v.Rollback()
	v.CommitBase([]int{0, 1}, []float64{10, 20})
	v.Apply([]int{2}, []float64{99})
	v.Rollback()
	want := []float64{10, 20, 0, 0}
	if !slices.Equal(v.Times(), want) {
		t.Fatalf("after CommitBase+Rollback: times %v want %v", v.Times(), want)
	}
	ids, _ := v.Earliest(2)
	if ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("Earliest(2) after CommitBase = %v, want [2 3]", ids)
	}
}

// TestAvailViewCommitBasePanicsOnPending pins the CommitBase precondition.
func TestAvailViewCommitBasePanicsOnPending(t *testing.T) {
	v := NewAvailView([]float64{0, 0})
	v.Apply([]int{0}, []float64{5})
	defer func() {
		if recover() == nil {
			t.Fatal("CommitBase with tentative assignments pending did not panic")
		}
	}()
	v.CommitBase([]int{1}, []float64{7})
}

// TestAvailViewEarliestIntoPanics pins the buffer-length contract.
func TestAvailViewEarliestIntoPanics(t *testing.T) {
	v := NewAvailView([]float64{1, 2, 3})
	for _, tc := range []struct {
		ids   []int
		times []float64
	}{
		{make([]int, 2), make([]float64, 3)},
		{make([]int, 0), make([]float64, 0)},
		{make([]int, 4), make([]float64, 4)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EarliestInto(len %d, len %d) did not panic", len(tc.ids), len(tc.times))
				}
			}()
			v.EarliestInto(tc.ids, tc.times)
		}()
	}
}
