package main

import (
	"context"
	"time"

	"rtdls"
	"rtdls/internal/cluster"
	"rtdls/internal/driver"
	"rtdls/internal/rt"
	"rtdls/internal/service"
)

// engine is the admission surface the in-process replay drives; both the
// public rtdls.Service and the internal service.Service provide it.
type engine interface {
	Submit(ctx context.Context, t rt.Task) (service.Decision, error)
	Drain() error
	Stats() service.Stats
	Close() error
}

// inprocRig replays a stream through one in-process service, setting a
// manual clock to each arrival, with a single closed-loop submitter.
type inprocRig struct {
	clock *service.ManualClock
	eng   engine
	svc   *service.Service // traced only: the same engine, for its queue length
	ver   *rtdls.Verifier  // traced only
	tr    *tracer
}

func newInprocRig(w workload, tr *tracer) (*inprocRig, error) {
	clock := rtdls.NewManualClock(0)
	opts := []rtdls.Option{
		rtdls.WithNodes(w.nodes), rtdls.WithParams(params), rtdls.WithPolicy(rtdls.EDF),
		rtdls.WithAlgorithm(rtdls.AlgDLTIIT), rtdls.WithClock(clock),
	}
	if tr == nil {
		eng, err := rtdls.New(opts...)
		if err != nil {
			return nil, err
		}
		return &inprocRig{clock: clock, eng: eng}, nil
	}
	// The traced engine is assembled from the same parts rtdls.New uses,
	// with the partitioner wrapped and the verifier installed.
	cm, err := rtdls.CostModelFor(opts...)
	if err != nil {
		return nil, err
	}
	part, err := driver.PartitionerFor(rtdls.AlgDLTIIT, 0, cm)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.NewHetero(cm.Costs())
	if err != nil {
		return nil, err
	}
	ver := rtdls.NewVerifierCosts(cm)
	svc, err := service.New(service.Config{
		Cluster: cl, Policy: rtdls.EDF, Partitioner: tracedPartitioner{part, tr},
		Clock: clock, Observer: ver,
	})
	if err != nil {
		return nil, err
	}
	svc.Scheduler().SetStageObserver(stageTee{tr: tr})
	return &inprocRig{clock: clock, eng: svc, svc: svc, ver: ver, tr: tr}, nil
}

func (r *inprocRig) replay(in *inputs) tally {
	ctx := context.Background()
	t := newTally(len(in.tasks))
	start := time.Now()
	for i, task := range in.tasks {
		r.clock.Set(task.Arrival)
		if r.tr == nil {
			t0 := time.Now()
			d, err := r.eng.Submit(ctx, task)
			t.done[i] = time.Since(start)
			t.lat[i] = t.done[i] - t0.Sub(start)
			t.count(i, d.Accepted, err)
			continue
		}
		idx := r.tr.begin(spanSubmit, int32(task.ID))
		t0 := time.Now()
		d, err := r.svc.Submit(ctx, task)
		t.done[i] = time.Since(start)
		t.lat[i] = t.done[i] - t0.Sub(start)
		r.tr.end(idx, int32(r.svc.QueueLen()))
		t.count(i, d.Accepted, err)
		if err == nil && d.Accepted && !coreModel(r.tr, task, d.Starts, d.Est) {
			t.modelMismatch++
		}
	}
	t.wall = time.Since(start)
	return t
}

func (r *inprocRig) finish(t *tally) []string {
	var fails []string
	if err := r.eng.Drain(); err != nil {
		fails = append(fails, "drain: "+err.Error())
	}
	st := r.eng.Stats()
	t.shardArrivals += int64(st.Arrivals)
	t.speculative += int64(st.Speculative)
	t.conflicts += int64(st.Conflicts)
	fails = append(fails, checkDrained(st, t)...)
	if r.ver != nil {
		fails = append(fails, checkVerifiers([]*rtdls.Verifier{r.ver}, st.Commits)...)
	}
	if err := r.close(); err != nil {
		fails = append(fails, "close: "+err.Error())
	}
	return fails
}

func (r *inprocRig) close() error { return r.eng.Close() }
