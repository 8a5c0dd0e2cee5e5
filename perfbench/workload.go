package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"rtdls"
	"rtdls/internal/core"
	"rtdls/internal/rt"
	"rtdls/internal/server"
	"rtdls/internal/service"
)

// workload is one replayed task stream and the engine it runs against.
// Every stream is the paper's Sec. 5 workload (Poisson arrivals, σ ~
// N(Avgσ, Avgσ), deadlines uniform around DCRatio × E(Avgσ, N)) on the
// baseline cost model, replayed in arrival order under EDF with DLT-IIT.
// A round replays the whole stream once. tasks sets its length: long
// enough that the reject ratio hardly moves from seed to seed, short
// enough that a timed phase holds about three rounds. Why each workload
// is in the benchmark is recorded in BENCHMARK.json.
type workload struct {
	name    string
	nodes   int     // cluster size; per shard when shards > 0
	shards  int     // 0: in-process single cluster; >0: pool behind the HTTP server
	load    float64 // SystemLoad: arrival rate × E(Avgσ, N)
	dcRatio float64 // mean relative deadline in units of E(Avgσ, N)
	tasks   int     // tasks in one round's stream
	window  int     // submits per timing window
	traced  int     // tasks the traced round replays: a prefix of the stream
	opEvery int     // wire: one fleet op (fail, then restore) per this many submits
}

var workloads = []workload{
	{
		// At SystemLoad 1.0 the waiting queue random-walks: over 20,000
		// tasks its mean ranges 36–61 across seeds and the reject ratio
		// 0.002–0.014. Overload holds the queue at the depth the loose
		// deadlines allow (~115 tasks) on every seed.
		name:    "deep-queue",
		nodes:   16,
		load:    1.5,
		dcRatio: 100,
		tasks:   20000,
		window:  500,
		traced:  15000,
	},
	{
		// A marginal reject passes fast-reject and then tries every node
		// count from ñ_min to 1024 before giving up. About 1% of tasks
		// take that path at its full length, so the stream is long enough
		// for a few hundred of them.
		name:    "fleet-1024",
		nodes:   1024,
		load:    1,
		dcRatio: 2,
		tasks:   28000,
		window:  1000,
		traced:  10000,
	},
	{
		// The topology of the repository's wire smoke test; planning on
		// 8-node shards is cheap, so JSON, placement, spillover, shard
		// contention and churn are what the time goes to.
		name:    "wire-pool",
		nodes:   8,
		shards:  4,
		load:    1,
		dcRatio: 10,
		tasks:   60000,
		window:  2000,
		traced:  50000,
		opEvery: 2000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var params = rtdls.Params{Cms: 1, Cps: 100}

const (
	avgSigma = 200
	maxQueue = 64 // per-shard waiting-queue bound on the wire pool
	clients  = 2  // closed-loop HTTP connections on the wire pool
)

// inputs is everything a round submits, generated before any timing.
type inputs struct {
	tasks  []rt.Task
	bodies [][]byte // wire: the encoded POST /v1/submit body of each task
}

func generate(w workload, seed uint64, n int) (*inputs, error) {
	total := w.nodes
	if w.shards > 0 {
		total *= w.shards
	}
	g, err := rtdls.NewGenerator(rtdls.WorkloadConfig{
		N: total, Params: params, SystemLoad: w.load, AvgSigma: avgSigma,
		DCRatio: w.dcRatio, Horizon: math.MaxFloat64, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{tasks: make([]rt.Task, 0, n)}
	for len(in.tasks) < n {
		t, ok := g.Next()
		if !ok {
			return nil, fmt.Errorf("generator ended after %d tasks", len(in.tasks))
		}
		in.tasks = append(in.tasks, *t)
	}
	if w.shards > 0 {
		in.bodies = make([][]byte, n)
		for i, t := range in.tasks {
			b, err := json.Marshal(server.TaskRequest{
				ID: t.ID, Arrival: t.Arrival, Sigma: t.Sigma, Deadline: t.RelDeadline, UserN: t.UserN,
			})
			if err != nil {
				return nil, err
			}
			in.bodies[i] = b
		}
	}
	return in, nil
}

// tally counts what one round did and what its checks found.
type tally struct {
	decisions, accepts, rejects int64
	errors                      int64 // hard failures: error returns, 5xx, transport errors, failed admin ops
	ops, displaced              int64 // fleet ops and the tasks they displaced
	modelMismatch               int64 // accepted plans whose estimate core.New does not reproduce
	wall                        time.Duration
	alloc                       uint64 // bytes allocated during the round

	// Per task, in stream order: submit-to-decision latency, when the
	// decision came back (counted from the start of the round), and whether
	// it was an accept. Each index is written by exactly one submitter.
	lat, done []time.Duration
	acc       []bool

	// Shard-level admission counters read after the round.
	shardArrivals, speculative, conflicts int64
}

func newTally(n int) tally {
	return tally{lat: make([]time.Duration, n), done: make([]time.Duration, n), acc: make([]bool, n)}
}

// prefix reports how many of the first n tasks were accepted and how long
// their decisions took to come back.
func (t *tally) prefix(n int) (accepts int64, wall time.Duration) {
	for i := range n {
		if t.acc[i] {
			accepts++
		}
		wall = max(wall, t.done[i])
	}
	return accepts, wall
}

// timings summarises rounds that replayed the same stream. Each task's
// latency is its median over the rounds, and each window of size
// consecutive submits lasts its median over the rounds (from the last
// decision before the window to the window's own last decision), so noise
// from outside the process that slows one round is voted out by the
// others while a task that is slow in every round still counts.
func timings(rounds []tally, size int) (thr float64, lat []float64) {
	n := len(rounds[0].lat)
	per := make([]float64, len(rounds))
	lat = make([]float64, n)
	for i := range lat {
		for r, t := range rounds {
			per[r] = float64(t.lat[i]) / 1e3
		}
		lat[i] = median(per)
	}
	sort.Float64s(lat)
	prev := make([]time.Duration, len(rounds))
	var total float64 // seconds
	for lo := 0; lo < n; lo += size {
		for r, t := range rounds {
			last := prev[r]
			for _, d := range t.done[lo:min(lo+size, n)] {
				last = max(last, d)
			}
			per[r] = (last - prev[r]).Seconds()
			prev[r] = last
		}
		total += median(per)
	}
	return float64(n) / total, lat
}

func (t *tally) count(i int, accepted bool, err error) {
	switch {
	case err != nil:
		t.errors++
	case accepted:
		t.decisions++
		t.accepts++
		t.acc[i] = true
	default:
		t.decisions++
		t.rejects++
	}
}

func (t *tally) add(o tally) {
	t.decisions += o.decisions
	t.accepts += o.accepts
	t.rejects += o.rejects
	t.errors += o.errors
	t.ops += o.ops
	t.displaced += o.displaced
	t.modelMismatch += o.modelMismatch
	t.wall += o.wall
	t.alloc += o.alloc
	t.shardArrivals += o.shardArrivals
	t.speculative += o.speculative
	t.conflicts += o.conflicts
}

// rig is one constructed engine, ready to replay one round.
type rig interface {
	replay(in *inputs) tally
	// finish drains and closes the engine and returns every failed check.
	finish(t *tally) []string
	close() error
}

func newRig(w workload, tr *tracer) (rig, error) {
	if w.shards > 0 {
		return newWireRig(w, tr)
	}
	return newInprocRig(w, tr)
}

// checkDrained applies the checks every round must pass after Drain.
func checkDrained(st service.Stats, t *tally) []string {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	if t.errors != 0 {
		failf("%d hard failures", t.errors)
	}
	if st.Accepts != st.Commits+st.Displaced-st.Readmitted {
		failf("accepts %d != commits %d + displaced %d - readmitted %d", st.Accepts, st.Commits, st.Displaced, st.Readmitted)
	}
	if st.LateCommits != 0 {
		failf("%d late commits", st.LateCommits)
	}
	if st.QueueLen != 0 {
		failf("queue holds %d tasks after drain", st.QueueLen)
	}
	if int64(st.Accepts) != t.accepts || int64(st.Rejects) != t.rejects {
		failf("engine counted %d accepts/%d rejects, submitters saw %d/%d", st.Accepts, st.Rejects, t.accepts, t.rejects)
	}
	if t.modelMismatch != 0 {
		failf("%d accepted estimates not reproduced by core.New", t.modelMismatch)
	}
	return fails
}

func checkVerifiers(vers []*rtdls.Verifier, commits int) []string {
	var fails []string
	n := 0
	for i, v := range vers {
		if !v.OK() {
			fails = append(fails, fmt.Sprintf("verifier %d: %d violations, first: %v", i, len(v.Violations()), v.Violations()[0]))
		}
		n += v.Commits()
	}
	if n != commits {
		fails = append(fails, fmt.Sprintf("verifiers saw %d commits, engine %d", n, commits))
	}
	return fails
}

// coreModel re-evaluates the paper's Sec. 4.1.1 model on an accepted
// plan's start times and reports whether it reproduces the decision's
// Eq. 6 estimate. It runs after the submit returns, outside every
// partitioner span.
func coreModel(tr *tracer, t rt.Task, starts []float64, est float64) bool {
	idx := tr.begin(spanCoreModel, int32(t.ID))
	m, err := core.New(params, t.Sigma, starts)
	got := math.NaN()
	if err == nil {
		got = m.EstCompletion()
	}
	tr.end(idx, int32(len(starts)))
	return math.Abs(got-est) <= 1e-9*math.Max(1, math.Abs(est))
}
