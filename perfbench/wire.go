package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rtdls"
	"rtdls/internal/cluster"
	"rtdls/internal/driver"
	"rtdls/internal/pool"
	"rtdls/internal/server"
	"rtdls/internal/service"
)

// wireRig serves a sharded pool through internal/server on a loopback
// listener in this process. Two closed-loop HTTP clients replay the stream
// in arrival order, each setting the shared manual clock to its task's
// arrival before sending it, and every opEvery-th submit is preceded by a
// fleet op (fail a node, then restore it) on the admin API.
type wireRig struct {
	w          workload
	clock      *service.ManualClock
	eng        server.Engine
	shardStats func() []service.Stats
	vers       []*rtdls.Verifier // traced only, one per shard
	srv        *server.Server
	hs         *http.Server
	served     chan error
	url        string
	clients    []*http.Client
	tr         *tracer
}

func newWireRig(w workload, tr *tracer) (*wireRig, error) {
	r := &wireRig{w: w, clock: rtdls.NewManualClock(0), tr: tr}
	reg := rtdls.NewMetricsRegistry()
	shardOpts := []rtdls.Option{rtdls.WithNodes(w.nodes), rtdls.WithParams(params)}
	if tr == nil {
		eng, err := rtdls.New(append(shardOpts,
			rtdls.WithPolicy(rtdls.EDF), rtdls.WithAlgorithm(rtdls.AlgDLTIIT),
			rtdls.WithMaxQueue(maxQueue), rtdls.WithClock(r.clock), rtdls.WithMetrics(reg),
			rtdls.WithShards(w.shards), rtdls.WithPlacement(rtdls.Spillover{}))...)
		if err != nil {
			return nil, err
		}
		r.eng, r.shardStats = eng, eng.ShardStats
	} else {
		// The traced pool is assembled from the same parts rtdls.New uses,
		// with partitioners and placement wrapped and a verifier per shard.
		met := service.NewMetrics(reg)
		shards := make([]pool.ShardConfig, w.shards)
		for j := range shards {
			cm, err := rtdls.CostModelFor(shardOpts...)
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
			r.vers = append(r.vers, ver)
			shards[j] = pool.ShardConfig{
				Cluster: cl, Policy: rtdls.EDF, Partitioner: tracedPartitioner{part, tr},
				MaxQueue: maxQueue, Observer: ver,
			}
		}
		p, err := pool.New(pool.Config{
			Shards: shards, Placement: tracedPlacement{pool.Spillover{}, tr}, Clock: r.clock, Metrics: met,
		})
		if err != nil {
			return nil, err
		}
		for j := 0; j < p.Shards(); j++ {
			p.Shard(j).Scheduler().SetStageObserver(stageTee{met, tr})
		}
		r.eng, r.shardStats = &tracedEngine{Pool: p, tr: tr}, p.ShardStats
	}
	srv, err := server.New(server.Config{Engine: r.eng, Metrics: reg, Version: rtdls.Version})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv = srv
	r.hs = &http.Server{Handler: srv.Handler()}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	r.url = "http://" + ln.Addr().String()
	for range clients {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{
			Proxy: nil, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return r, nil
}

func (r *wireRig) replay(in *inputs) tally {
	var next atomic.Int64
	t := newTally(len(in.tasks))
	parts := make([]tally, len(r.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range r.clients {
		parts[i].lat, parts[i].done, parts[i].acc = t.lat, t.done, t.acc
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.client(c, in, start, &next, &parts[i])
		}()
	}
	wg.Wait()
	t.wall = time.Since(start)
	for _, p := range parts {
		t.add(p)
	}
	return t
}

// client is one closed-loop connection. It records into t's counters and
// into the shared lat/done slices at the indices it claims.
func (r *wireRig) client(c *http.Client, in *inputs, start time.Time, next *atomic.Int64, t *tally) {
	for {
		i := int(next.Add(1) - 1)
		if i >= len(in.tasks) {
			return
		}
		if r.w.opEvery > 0 && i > 0 && i%r.w.opEvery == 0 {
			r.fleetOp(c, i/r.w.opEvery-1, t)
		}
		task := in.tasks[i]
		r.clock.Set(task.Arrival)
		var idx int32
		if r.tr != nil {
			idx = r.tr.begin(spanRoundTrip, int32(task.ID))
		}
		t0 := time.Now()
		dr, err := r.submit(c, in.bodies[i])
		t.done[i] = time.Since(start)
		t.lat[i] = t.done[i] - t0.Sub(start)
		if r.tr != nil {
			r.tr.end(idx, 0)
		}
		t.count(i, dr.Accepted, err)
		if r.tr != nil && err == nil && dr.Accepted && !coreModel(r.tr, task, dr.Starts, dr.Est) {
			t.modelMismatch++
		}
	}
}

// submit posts one task and accepts only a well-formed decision: 200 with
// an accept, or a clean rejection under its reason's stable code.
func (r *wireRig) submit(c *http.Client, body []byte) (server.DecisionResponse, error) {
	var dr server.DecisionResponse
	status, err := r.post(c, "/v1/submit", body, &dr)
	if err != nil {
		return dr, err
	}
	if status == http.StatusOK && dr.Accepted {
		return dr, nil
	}
	if status != http.StatusOK && status < 500 && !dr.Accepted && dr.Reason.Code() == status {
		return dr, nil
	}
	return dr, fmt.Errorf("submit: status %d, accepted=%v reason=%q", status, dr.Accepted, dr.Reason)
}

// nodeFor spreads fleet-op pair k over the pool's nodes and shards.
func (r *wireRig) nodeFor(k int) int { return (9*k + 3) % (r.w.nodes * r.w.shards) }

// fleetOp runs op k: even ops fail a node, odd ops restore it.
func (r *wireRig) fleetOp(c *http.Client, k int, t *tally) {
	action := "fail"
	if k%2 == 1 {
		action = "restore"
	}
	var res service.FleetResult
	status, err := r.post(c, fmt.Sprintf("/v1/nodes/%d/%s", r.nodeFor(k/2), action), nil, &res)
	t.ops++
	if err != nil || status != http.StatusOK {
		t.errors++
		return
	}
	t.displaced += int64(res.Displaced)
}

func (r *wireRig) post(c *http.Client, path string, body []byte, into any) (int, error) {
	req, err := http.NewRequest(http.MethodPost, r.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return resp.StatusCode, fmt.Errorf("%s: decoding %q: %w", path, b, err)
	}
	return resp.StatusCode, nil
}

func (r *wireRig) finish(t *tally) []string {
	var fails []string
	if t.ops%2 == 1 {
		// The last op failed a node; restore it so every round ends with
		// the whole fleet up.
		r.fleetOp(r.clients[0], int(t.ops), t)
	}
	_, fivexx := r.srv.Requests()
	if fivexx != 0 {
		fails = append(fails, fmt.Sprintf("%d responses with status 5xx", fivexx))
	}
	if err := r.close(); err != nil {
		fails = append(fails, "close: "+err.Error())
	}
	st := r.eng.Stats()
	for _, ss := range r.shardStats() {
		t.shardArrivals += int64(ss.Arrivals)
		t.speculative += int64(ss.Speculative)
		t.conflicts += int64(ss.Conflicts)
	}
	fails = append(fails, checkDrained(st, t)...)
	if r.vers != nil {
		fails = append(fails, checkVerifiers(r.vers, st.Commits)...)
	}
	return fails
}

// close drains the engine through the server (gate, commit every waiting
// plan, close) and stops the listener and the clients' connections.
func (r *wireRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	derr := r.srv.Drain(ctx)
	serr := r.hs.Shutdown(ctx)
	if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	return errors.Join(derr, serr)
}
