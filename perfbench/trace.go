package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rtdls/internal/pool"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// spanKind names the layer boundary a span was recorded at. Every span is
// recorded from the benchmark's own files, around a call into one layer's
// public surface; the program itself is not instrumented.
type spanKind uint8

const (
	spanSubmit     spanKind = iota // service.submit: in-process Service.Submit
	spanRoundTrip                  // server.roundtrip: client HTTP round trip of one submit
	spanEngine                     // pool.submit: the Engine.Submit the server makes
	spanPlace                      // pool.place: Placement.Order
	spanFastReject                 // rt.fast_reject: FastRejecter.FastReject (aux 1 = hit)
	spanPlan                       // rt.plan: Partitioner.Plan (aux 1 = returned an error, i.e. infeasible)
	spanCoreModel                  // core.model: core.New + EstCompletion on an accepted plan (aux = n)
	spanFleetOp                    // fleet.op: Engine.FailNode/RestoreNode (aux = displaced)
)

var spanNames = [...]string{
	spanSubmit:     "service.submit",
	spanRoundTrip:  "server.roundtrip",
	spanEngine:     "pool.submit",
	spanPlace:      "pool.place",
	spanFastReject: "rt.fast_reject",
	spanPlan:       "rt.plan",
	spanCoreModel:  "core.model",
	spanFleetOp:    "fleet.op",
}

// span is one timed call. Spans of one submission share sub (the task id;
// fleet ops use negative ids) and nest through parent.
type span struct {
	start, end int64 // ns since the tracer's epoch
	sub        int32
	parent     int32 // index of the enclosing span, -1 for a root
	aux        int32 // per-kind payload, see spanKind
	// ovh is the tracer's own bookkeeping around a leaf span, which falls
	// inside the parent's interval; self times exclude it.
	ovh  int32
	kind spanKind
}

// tracer keeps every span of one traced replay in memory. A single mutex
// orders all recording; its cost is part of trace.overhead_ratio.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// open maps a submission to its innermost open span, so a span begun
	// on another goroutine (the server handler under a client round trip)
	// still finds its parent.
	open map[int32]int32
	// ctxSub maps a planning context to the submission whose FastReject
	// last used it. The scheduler hands the partitioner one context per
	// admission test (its own under the shard lock, or a pooled
	// speculation context), and every test starts with FastReject, so the
	// Plan calls that follow belong to that submission — unless it has
	// already returned, in which case they are a fleet op's revalidation.
	ctxSub  map[*rt.PlanContext]int32
	fleetOp int32 // open fleet-op span, -1 when none
	stages  [rt.NumStages]struct {
		n   int64
		sum float64
	}
}

func newTracer(sizeHint int) *tracer {
	return &tracer{
		epoch:   time.Now(),
		spans:   make([]span, 0, sizeHint),
		open:    make(map[int32]int32),
		ctxSub:  make(map[*rt.PlanContext]int32),
		fleetOp: -1,
	}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// begin opens a span that later spans of the same submission nest under.
func (tr *tracer) begin(kind spanKind, sub int32) int32 {
	tr.mu.Lock()
	parent, ok := tr.open[sub]
	if !ok {
		parent = -1
	}
	idx := int32(len(tr.spans))
	tr.open[sub] = idx
	if kind == spanFleetOp {
		tr.fleetOp = idx
	}
	tr.spans = append(tr.spans, span{start: tr.now(), sub: sub, parent: parent, kind: kind})
	tr.mu.Unlock()
	return idx
}

// end closes a span opened by begin.
func (tr *tracer) end(idx, aux int32) {
	t := tr.now()
	tr.mu.Lock()
	s := &tr.spans[idx]
	s.end, s.aux = t, aux
	if s.parent >= 0 {
		tr.open[s.sub] = s.parent
	} else {
		delete(tr.open, s.sub)
	}
	if idx == tr.fleetOp {
		tr.fleetOp = -1
	}
	tr.mu.Unlock()
}

// beginLeaf opens a span no other span nests under, for a submission
// already known to the caller or resolved from the planning context.
func (tr *tracer) beginLeaf(kind spanKind, sub int32, pctx *rt.PlanContext) int32 {
	enter := tr.now()
	tr.mu.Lock()
	switch {
	case kind == spanFastReject:
		tr.ctxSub[pctx] = sub
	case pctx != nil:
		var ok bool
		if sub, ok = tr.ctxSub[pctx]; !ok {
			sub = -1
		}
	}
	parent, ok := tr.open[sub]
	if !ok {
		parent = -1
		if tr.fleetOp >= 0 {
			parent, sub = tr.fleetOp, tr.spans[tr.fleetOp].sub
		}
	}
	idx := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{sub: sub, parent: parent, kind: kind})
	s := &tr.spans[idx]
	s.start = tr.now()
	s.ovh = int32(s.start - enter)
	tr.mu.Unlock()
	return idx
}

func (tr *tracer) endLeaf(idx, aux int32) {
	t := tr.now()
	tr.mu.Lock()
	s := &tr.spans[idx]
	s.end, s.aux = t, aux
	s.ovh += int32(tr.now() - t)
	tr.mu.Unlock()
}

// ObserveStage implements rt.StageObserver.
func (tr *tracer) ObserveStage(st rt.Stage, seconds float64) {
	tr.mu.Lock()
	tr.stages[st].n++
	tr.stages[st].sum += seconds
	tr.mu.Unlock()
}

// write stores the spans as gzip-compressed TSV.
func (tr *tracer) write(path, header string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintf(bw, "# %s\nindex\tname\tsub\tparent\tstart_ns\tend_ns\taux\tovh_ns\n", header)
	for i, s := range tr.spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", i, spanNames[s.kind], s.sub, s.parent, s.start, s.end, s.aux, s.ovh)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// layerStats is what the span log says about each layer.
type layerStats struct {
	submissions   int
	submitSelf    []float64 // µs: the submitting layer's span minus its partitioner and placement children
	engineDur     []float64 // µs: pool.submit spans
	serverSelf    []float64 // µs: round trip minus its pool.submit child
	queueSum      float64
	queueMax      int32
	planCalls     int // plan calls made for submissions (not fleet revalidation)
	planN         int
	planSum       float64 // µs, every plan call
	infeasible    []float64
	frN, frHits   int
	frSum         float64
	placeN        int
	placeSum      float64
	coreN         int
	coreSum       float64
	coreNodes     int64
	fleetN        int
	fleetSum      float64
	fleetDisplace int64
	orphans       int                   // partitioner calls no submission or fleet op claimed
	self          [len(spanNames)]int64 // ns of self time by span kind
	count         [len(spanNames)]int
}

// derive computes each span's self time (its duration minus the part its
// children cover) and folds the spans into per-layer statistics.
func (tr *tracer) derive() layerStats {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start + int64(s.ovh)
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var ls layerStats
	for i, s := range tr.spans {
		dur := s.end - s.start
		ls.self[s.kind] += dur - child[i]
		ls.count[s.kind]++
		switch s.kind {
		case spanSubmit, spanEngine:
			ls.submitSelf = append(ls.submitSelf, us(dur-child[i]))
			ls.queueSum += float64(s.aux)
			if s.aux > ls.queueMax {
				ls.queueMax = s.aux
			}
			if s.kind == spanEngine {
				ls.engineDur = append(ls.engineDur, us(dur))
			}
			ls.submissions++
		case spanRoundTrip:
			ls.serverSelf = append(ls.serverSelf, us(dur-child[i]))
		case spanPlace:
			ls.placeN++
			ls.placeSum += us(dur)
		case spanFastReject:
			ls.frN++
			ls.frSum += us(dur)
			ls.frHits += int(s.aux)
		case spanPlan:
			ls.planN++
			ls.planSum += us(dur)
			if s.parent >= 0 && tr.spans[s.parent].kind != spanFleetOp {
				ls.planCalls++
			}
			if s.aux == 1 {
				ls.infeasible = append(ls.infeasible, us(dur))
			}
		case spanCoreModel:
			ls.coreN++
			ls.coreSum += us(dur)
			ls.coreNodes += int64(s.aux)
		case spanFleetOp:
			ls.fleetN++
			ls.fleetSum += us(dur)
			ls.fleetDisplace += int64(s.aux)
		}
		if (s.kind == spanPlan || s.kind == spanFastReject) && s.parent < 0 {
			ls.orphans++
		}
	}
	for _, s := range [][]float64{ls.submitSelf, ls.engineDur, ls.serverSelf, ls.infeasible} {
		sort.Float64s(s)
	}
	return ls
}

// tracedPartitioner times every call into the rt layer's Partitioner and
// FastRejecter surface. It forwards both, so the scheduler takes exactly
// the path it takes on the bare partitioner.
type tracedPartitioner struct {
	inner rt.Partitioner
	tr    *tracer
}

func (p tracedPartitioner) Name() string { return p.inner.Name() }

func (p tracedPartitioner) Plan(ctx *rt.PlanContext, t *rt.Task) (*rt.Plan, error) {
	idx := p.tr.beginLeaf(spanPlan, 0, ctx)
	pl, err := p.inner.Plan(ctx, t)
	var infeasible int32
	if err != nil {
		infeasible = 1
	}
	p.tr.endLeaf(idx, infeasible)
	return pl, err
}

// FastReject forwards to the wrapped partitioner when it is a
// FastRejecter; otherwise it never rejects, which the scheduler treats
// exactly as having no fast path. Either way the span marks the start of
// an admission test on ctx.
func (p tracedPartitioner) FastReject(ctx *rt.PlanContext, t *rt.Task) bool {
	idx := p.tr.beginLeaf(spanFastReject, int32(t.ID), ctx)
	fr, ok := p.inner.(rt.FastRejecter)
	hit := ok && fr.FastReject(ctx, t)
	var aux int32
	if hit {
		aux = 1
	}
	p.tr.endLeaf(idx, aux)
	return hit
}

// tracedPlacement times the pool's routing layer. It deliberately does not
// implement pool.LoadAware: the wrapped Spillover does not either, so the
// pool samples shard loads exactly as it does for the bare placement.
type tracedPlacement struct {
	inner pool.Placement
	tr    *tracer
}

func (p tracedPlacement) Name() string { return p.inner.Name() }

func (p tracedPlacement) Order(dst []int, seq uint64, loads []pool.ShardLoad, t *rt.Task) []int {
	idx := p.tr.beginLeaf(spanPlace, int32(t.ID), nil)
	dst = p.inner.Order(dst, seq, loads, t)
	p.tr.endLeaf(idx, 0)
	return dst
}

// tracedEngine is the server.Engine handed to server.New on the traced
// wire replay: it times the submit and fleet calls the server makes into
// the pool and forwards everything else.
type tracedEngine struct {
	*pool.Pool
	tr  *tracer
	ops atomic.Int32
}

func (e *tracedEngine) Submit(ctx context.Context, t rt.Task) (service.Decision, error) {
	idx := e.tr.begin(spanEngine, int32(t.ID))
	d, err := e.Pool.Submit(ctx, t)
	var q int32
	if err == nil {
		q = int32(e.Pool.Shard(d.Shard).QueueLen())
	}
	e.tr.end(idx, q)
	return d, err
}

func (e *tracedEngine) fleetOp(op func(int) (service.FleetResult, error), node int) (service.FleetResult, error) {
	idx := e.tr.begin(spanFleetOp, -1-e.ops.Add(1))
	res, err := op(node)
	e.tr.end(idx, int32(res.Displaced))
	return res, err
}

func (e *tracedEngine) FailNode(node int) (service.FleetResult, error) {
	return e.fleetOp(e.Pool.FailNode, node)
}

func (e *tracedEngine) RestoreNode(node int) (service.FleetResult, error) {
	return e.fleetOp(e.Pool.RestoreNode, node)
}

// stageTee feeds the scheduler's stage spans to the tracer and, when the
// engine is instrumented, to its metrics as well.
type stageTee struct {
	met *service.Metrics
	tr  *tracer
}

func (s stageTee) ObserveStage(st rt.Stage, seconds float64) {
	if s.met != nil {
		s.met.ObserveStage(st, seconds)
	}
	s.tr.ObserveStage(st, seconds)
}
