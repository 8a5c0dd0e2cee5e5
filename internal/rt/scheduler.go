package rt

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rtdls/internal/cluster"
	"rtdls/internal/dlt"
	"rtdls/internal/errs"
)

// Observer receives admission-control lifecycle callbacks. All methods may
// be nil-safe no-ops; see package trace for ready-made implementations.
type Observer interface {
	OnAccept(now float64, t *Task, p *Plan)
	OnReject(now float64, t *Task)
	OnCommit(now float64, p *Plan)
}

// Scheduler implements the paper's Fig. 2 schedulability test and the
// surrounding admission control. On every arrival it tentatively re-plans
// the entire waiting queue (ordered by the policy) on top of the committed
// cluster state; the new task is accepted only if every task in the
// tentative schedule meets its deadline, in which case the tentative
// schedule replaces the previous plan. A waiting task becomes committed —
// occupying its nodes, no longer replannable — when its first data
// transmission begins (its plan's earliest node start time).
//
// All methods are safe for concurrent use: a single mutex serialises
// submissions, commits and statistic reads, so one scheduler can be driven
// from many goroutines (the service package builds on this).
type Scheduler struct {
	mu   sync.Mutex
	cl   *cluster.Cluster
	pol  Policy
	part Partitioner

	waiting []*Task         // admitted, not yet committed; in policy order
	plans   map[int64]*Plan // current feasible schedule for waiting tasks

	// Scratch state reused across submissions so the admission hot path
	// allocates only what the accepted plans themselves need. scratch and
	// waiting are double-buffered (never share a backing array); spare and
	// plans likewise.
	scratch  []*Task
	spare    map[int64]*Plan
	view     *AvailView
	availBuf []float64
	eligBuf  []bool
	pctx     PlanContext

	// The availability view is kept base-synced across submissions:
	// clVersion records the cluster mutation counter the view's base
	// snapshot reflects. While it matches, a fresh test costs one
	// O(changed·log n) Rollback of the previous test's tentative
	// assignments; on a mismatch (node churn, fleet growth, out-of-band
	// commits) the view is rebuilt from a full snapshot. liveCache is the
	// live-node count at the last sync — LiveNodes is O(n) under churn.
	clVersion uint64
	liveCache int

	// refView is a testing hook (never set in production): every test
	// rebuilds the view from a fresh snapshot and serves its queries from
	// the full-sort reference implementation, the legacy per-submit
	// sorted-slice behaviour the bit-for-bit equivalence suite compares
	// the incremental index against.
	refView bool

	// Admission counters live on atomics so Stats() — and every observer
	// built on it, including the /metrics scrape — never takes the
	// scheduler lock. Writes still happen inside locked sections, so the
	// counters remain mutually consistent at quiescence.
	arrivals atomic.Int64
	accepts  atomic.Int64
	rejects  atomic.Int64
	commits  atomic.Int64
	queueLen atomic.Int64
	maxQueue atomic.Int64

	obs      Observer
	stageObs StageObserver
}

// NewScheduler builds a scheduler for the given cluster, policy and
// partitioning module.
func NewScheduler(cl *cluster.Cluster, pol Policy, part Partitioner) *Scheduler {
	if cl == nil {
		panic("rt: NewScheduler: nil cluster")
	}
	if part == nil {
		panic("rt: NewScheduler: nil partitioner")
	}
	return &Scheduler{
		cl:    cl,
		pol:   pol,
		part:  part,
		plans: make(map[int64]*Plan),
		spare: make(map[int64]*Plan),
	}
}

// SetObserver installs lifecycle callbacks (nil disables them). Callbacks
// run with the scheduler lock held and must not call back into it. If obs
// also implements StageObserver, per-stage timing spans are enabled too.
func (s *Scheduler) SetObserver(obs Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = obs
	if so, ok := obs.(StageObserver); ok && s.stageObs == nil {
		s.stageObs = so
	}
}

// SetStageObserver installs per-stage timing callbacks (nil disables
// them). The observer runs with the scheduler lock held, once per
// admission test, and must be cheap and concurrency-safe.
func (s *Scheduler) SetStageObserver(so StageObserver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stageObs = so
}

// Cluster returns the cluster the scheduler manages.
func (s *Scheduler) Cluster() *cluster.Cluster { return s.cl }

// Policy returns the execution-order policy.
func (s *Scheduler) Policy() Policy { return s.pol }

// Partitioner returns the partitioning module.
func (s *Scheduler) Partitioner() Partitioner { return s.part }

// Submit runs the schedulability test for a newly arrived task and either
// admits it (installing the new feasible schedule for the whole waiting
// queue) or rejects it (leaving the previous schedule untouched). The
// returned error reports malformed input or internal inconsistencies, not
// infeasibility — an infeasible task is a clean (false, nil) rejection.
func (s *Scheduler) Submit(t *Task, now float64) (accepted bool, err error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Arrival > now {
		return false, fmt.Errorf("rt: task %d submitted at %v before its arrival %v: %w",
			t.ID, now, t.Arrival, errs.ErrBadConfig)
	}
	if _, dup := s.plans[t.ID]; dup {
		return false, fmt.Errorf("rt: task %d is already waiting: %w", t.ID, errs.ErrBadConfig)
	}
	s.arrivals.Add(1)

	// Per-stage timing spans are measured only when an observer is
	// installed; the nil path costs a single predictable branch.
	stageObs := s.stageObs
	var t0 time.Time
	var candDur, planDur time.Duration
	if stageObs != nil {
		t0 = time.Now()
	}

	view, live := s.freshViewLocked()
	if live == 0 {
		// The whole fleet is drained or down: nothing is placeable. The
		// stage spans are still recorded — every submit contributes one
		// sample per stage, whichever path it takes, so the stage
		// histograms stay reconcilable with rtdls_submits_total.
		s.reject(now, t)
		s.observeEarlyReject(stageObs, t0)
		return false, nil
	}
	s.pctx = PlanContext{N: live, Now: now, View: view, Costs: s.cl.Costs()}

	// Infeasibility fast-reject: a hopeless task — provably unable to meet
	// its deadline even under the partitioner's most optimistic bounds —
	// is rejected with one O(log n) order-statistic query against the
	// committed availability index, skipping the O(queue × plan) replan.
	// FastReject is sound (never fires on a task the full test would
	// accept), so the admission decision stream is unchanged.
	if fr, ok := s.part.(FastRejecter); ok && fr.FastReject(&s.pctx, t) {
		s.reject(now, t)
		s.observeEarlyReject(stageObs, t0)
		return false, nil
	}

	// TempTaskList ← NewTask + TaskWaitingQueue, ordered by the policy. The
	// candidate list is a scratch buffer double-buffered against waiting.
	cand := s.scratch[:0]
	inserted := false
	for _, w := range s.waiting {
		if !inserted && s.pol.Less(t, w) {
			cand = append(cand, t)
			inserted = true
		}
		cand = append(cand, w)
	}
	if !inserted {
		cand = append(cand, t)
	}
	s.scratch = cand
	if stageObs != nil {
		// Candidate selection ends once the availability view is set up;
		// everything after splits into planning (the partitioner calls) and
		// the schedulability check (deadline comparisons + view updates).
		candDur = time.Since(t0)
		defer func() {
			stageObs.ObserveStage(StageCandidate, candDur.Seconds())
			stageObs.ObserveStage(StagePlan, planDur.Seconds())
			check := time.Since(t0) - candDur - planDur
			if check < 0 {
				check = 0
			}
			stageObs.ObserveStage(StageCheck, check.Seconds())
		}()
	}
	newPlans := s.spare
	discard := func() {
		clear(newPlans)
		clear(cand)
	}
	for _, ti := range cand {
		var pl *Plan
		var perr error
		if stageObs != nil {
			tp := time.Now()
			pl, perr = s.part.Plan(&s.pctx, ti)
			planDur += time.Since(tp)
		} else {
			pl, perr = s.part.Plan(&s.pctx, ti)
		}
		if perr != nil {
			if errors.Is(perr, ErrInfeasible) {
				s.reject(now, t)
				discard()
				return false, nil
			}
			discard()
			return false, perr
		}
		absD := ti.AbsDeadline()
		if pl.Est > absD+deadlineEps(absD) {
			s.reject(now, t)
			discard()
			return false, nil
		}
		view.Apply(pl.Nodes, pl.Release)
		newPlans[ti.ID] = pl
	}

	// All tasks in the cluster are schedulable: accept TempSchedule. The
	// previous waiting slice and plan map become the next scratch buffers.
	old := s.waiting
	s.waiting = cand
	clear(old)
	s.scratch = old
	oldPlans := s.plans
	s.plans = newPlans
	clear(oldPlans)
	s.spare = oldPlans
	s.accepts.Add(1)
	q := int64(len(s.waiting))
	s.queueLen.Store(q)
	storeMax(&s.maxQueue, q)
	if s.obs != nil {
		s.obs.OnAccept(now, t, newPlans[t.ID])
	}
	return true, nil
}

// freshViewLocked hands the admission test an availability view holding
// exactly the committed cluster state. While the cluster's mutation
// counter still matches the view's base snapshot, that is one
// O(changed·log n) Rollback of the previous test's tentative assignments
// — the steady-state path, since CommitDue folds commits into the base
// incrementally. On a version mismatch (node churn, fleet growth,
// out-of-band commits) the view is rebuilt from a fresh snapshot, the
// placement-eligibility mask is reinstalled when any node is drained or
// down, and the live (placeable) node count is recached. A fully-up fleet
// takes exactly the pre-fleet path: no mask, live == N.
func (s *Scheduler) freshViewLocked() (view *AvailView, live int) {
	if s.view != nil && !s.refView && s.clVersion == s.cl.Version() {
		s.view.Rollback()
		return s.view, s.liveCache
	}
	s.availBuf = s.cl.AvailInto(s.availBuf)
	if s.view == nil {
		s.view = NewAvailView(s.availBuf)
	} else {
		s.view.Reset(s.availBuf)
	}
	s.view.refMode = s.refView
	live = s.cl.LiveNodes()
	if live < s.cl.N() {
		s.eligBuf = s.cl.EligibleInto(s.eligBuf)
		s.view.SetEligible(s.eligBuf)
	}
	s.clVersion = s.cl.Version()
	s.liveCache = live
	return s.view, live
}

// observeEarlyReject records the stage spans for an admission test that
// ended before planning began (fleet down, fast-reject): the elapsed time
// is all candidate work, and the plan/check stages contribute explicit
// zero-length spans so every submit yields exactly one sample per stage.
func (s *Scheduler) observeEarlyReject(so StageObserver, t0 time.Time) {
	if so == nil {
		return
	}
	so.ObserveStage(StageCandidate, time.Since(t0).Seconds())
	so.ObserveStage(StagePlan, 0)
	so.ObserveStage(StageCheck, 0)
}

// SetNodeState transitions one cluster node and, on a capacity loss
// (draining or down), re-runs the schedulability test over the whole
// waiting queue: tasks whose plans no longer fit the remaining live nodes
// are removed and returned as displaced — their original accept stands in
// the counters, but they will never commit here. Restoring a node never
// displaces anything (capacity only grows); waiting plans are left as
// planned and re-optimised naturally on the next arrival.
func (s *Scheduler) SetNodeState(id int, st cluster.NodeState, now float64) (displaced []*Task, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.cl.SetNodeState(id, st); err != nil {
		// Bad node id / state is a caller mistake, not an engine fault: tag
		// it so the wire layer maps it to 400 rather than 500.
		return nil, fmt.Errorf("%v: %w", err, errs.ErrBadConfig)
	}
	if st == cluster.NodeUp {
		return nil, nil
	}
	return s.revalidateLocked(now)
}

// AddNode grows the cluster by one node with the given cost coefficients,
// available from availFrom, and returns its id. Waiting plans are
// untouched — the new capacity is picked up by the next admission test.
func (s *Scheduler) AddNode(nc dlt.NodeCost, availFrom float64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cl.AddNode(nc, availFrom)
}

// Revalidate re-runs the schedulability test for every waiting task
// against the current fleet, in policy order, and removes (returning) the
// tasks that no longer fit. It is the capacity-loss analogue of Submit's
// whole-queue test: kept tasks get fresh plans stacked on the live nodes,
// displaced tasks keep their accept counted but will never commit.
func (s *Scheduler) Revalidate(now float64) (displaced []*Task, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revalidateLocked(now)
}

func (s *Scheduler) revalidateLocked(now float64) (displaced []*Task, err error) {
	if len(s.waiting) == 0 {
		return nil, nil
	}
	view, live := s.freshViewLocked()
	s.pctx = PlanContext{N: live, Now: now, View: view, Costs: s.cl.Costs()}
	keep := s.scratch[:0]
	newPlans := s.spare
	for _, w := range s.waiting {
		if live == 0 {
			displaced = append(displaced, w)
			continue
		}
		pl, perr := s.part.Plan(&s.pctx, w)
		if perr != nil {
			if errors.Is(perr, ErrInfeasible) {
				displaced = append(displaced, w)
				continue
			}
			clear(newPlans)
			clear(keep)
			return nil, perr
		}
		absD := w.AbsDeadline()
		if pl.Est > absD+deadlineEps(absD) {
			displaced = append(displaced, w)
			continue
		}
		view.Apply(pl.Nodes, pl.Release)
		newPlans[w.ID] = pl
		keep = append(keep, w)
	}
	old := s.waiting
	s.waiting = keep
	clear(old)
	s.scratch = old
	oldPlans := s.plans
	s.plans = newPlans
	clear(oldPlans)
	s.spare = oldPlans
	s.queueLen.Store(int64(len(s.waiting)))
	return displaced, nil
}

// storeMax raises the atomic to v if v exceeds the current value.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (s *Scheduler) reject(now float64, t *Task) {
	s.rejects.Add(1)
	if s.obs != nil {
		s.obs.OnReject(now, t)
	}
}

// NextCommit returns the earliest plan start time among waiting tasks, or
// ok=false when the queue is empty. The driver schedules a commit event at
// this instant.
func (s *Scheduler) NextCommit() (at float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at = math.Inf(1)
	for _, pl := range s.plans {
		if fs := pl.FirstStart(); fs < at {
			at = fs
		}
	}
	return at, !math.IsInf(at, 1)
}

// commitEps tolerates event-time rounding when deciding whether a plan's
// first transmission is due.
const commitEps = 1e-9

// CommitDue commits every waiting plan whose first transmission start is ≤
// now, in queue order, updating the cluster's release times and accounting.
// It returns the committed plans (possibly none).
func (s *Scheduler) CommitDue(now float64) ([]*Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stageObs := s.stageObs
	var t0 time.Time
	if stageObs != nil {
		t0 = time.Now()
	}
	var out []*Plan
	rest := s.waiting[:0]
	tol := commitEps * math.Max(1, math.Abs(now))
	// While the view is base-synced, fold each commit into its base
	// incrementally (O(nodes·log n)) instead of forcing the next admission
	// test to resnapshot and re-sort all N nodes. The tentative
	// assignments of the last test are rolled back first — CommitBase
	// mutates the base, not the tentative overlay. An error path below
	// leaves clVersion stale, which safely forces a full resync.
	synced := s.view != nil && !s.refView && s.clVersion == s.cl.Version()
	if synced {
		s.view.Rollback()
	}
	for _, w := range s.waiting {
		pl := s.plans[w.ID]
		if pl == nil {
			return out, fmt.Errorf("rt: waiting task %d has no plan", w.ID)
		}
		if pl.FirstStart() <= now+tol {
			if err := s.cl.Commit(pl.Nodes, pl.Starts, pl.Release, pl.ReservedIdle); err != nil {
				return out, fmt.Errorf("rt: committing task %d: %w", w.ID, err)
			}
			if synced {
				s.view.CommitBase(pl.Nodes, pl.Release)
			}
			delete(s.plans, w.ID)
			s.commits.Add(1)
			if s.obs != nil {
				s.obs.OnCommit(now, pl)
			}
			out = append(out, pl)
			continue
		}
		rest = append(rest, w)
	}
	// Drop the stale tail references left behind by the in-place filter.
	tail := s.waiting[len(rest):]
	clear(tail)
	s.waiting = rest
	s.queueLen.Store(int64(len(rest)))
	if synced {
		s.clVersion = s.cl.Version()
	}
	if stageObs != nil && len(out) > 0 {
		stageObs.ObserveStage(StageCommit, time.Since(t0).Seconds())
	}
	return out, nil
}

// PlanFor returns the current plan for a waiting task, or nil.
func (s *Scheduler) PlanFor(taskID int64) *Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plans[taskID]
}

// Stats is a consistent snapshot of the scheduler's admission counters.
type Stats struct {
	Arrivals    int // submitted tasks
	Accepts     int // admitted tasks
	Rejects     int // rejected tasks
	Commits     int // committed (started) tasks
	QueueLen    int // admitted-but-uncommitted tasks right now
	MaxQueueLen int // largest waiting-queue length observed
}

// RejectRatio returns Rejects/Arrivals, the paper's evaluation metric
// (0 when nothing has arrived).
func (st Stats) RejectRatio() float64 {
	if st.Arrivals == 0 {
		return 0
	}
	return float64(st.Rejects) / float64(st.Arrivals)
}

// Stats returns a snapshot of all admission counters. It is lock-free —
// each counter is read atomically, so a snapshot taken while submissions
// are in flight may be mid-update by one task (e.g. Arrivals incremented
// before the matching Accepts), but never blocks or delays admission. At
// quiescence the snapshot is exact.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Arrivals:    int(s.arrivals.Load()),
		Accepts:     int(s.accepts.Load()),
		Rejects:     int(s.rejects.Load()),
		Commits:     int(s.commits.Load()),
		QueueLen:    int(s.queueLen.Load()),
		MaxQueueLen: int(s.maxQueue.Load()),
	}
}
