package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtdls/internal/rt"
)

// smokeTasks keeps each replay to a fraction of a second while still
// reaching every layer: the wire replay is long enough for one fleet op,
// which leaves a node failed for finish to restore.
var smokeTasks = map[string]int{"deep-queue": 600, "fleet-1024": 300, "wire-pool": 3000}

// TestSmoke replays a tiny stream of every workload, untraced and traced,
// and checks that the run's own checks pass and that every named metric
// is reported with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				var log bytes.Buffer
				res, err := run(w, config{
					seed: 7, seconds: 0.01, trace: traced, out: t.TempDir(),
					tasks: smokeTasks[w.name], setups: 2, log: &log,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < int64(smokeTasks[w.name]) {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
						t.Errorf("%s = %v", d.name, m.Value)
					case !traced && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", d.name)
					}
					if !strings.Contains(log.String(), d.name) {
						t.Errorf("%s not in the printed report", d.name)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json names
// exactly the workloads and metrics this program reports, with the same
// units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []def
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for _, c := range []struct {
		listed []def
		defs   []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		var got, want []string
		for _, d := range c.listed {
			got = append(got, d.Name+" "+d.Unit)
		}
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("BENCHMARK.json metrics\n%v\nprogram\n%v", got, want)
		}
	}
}

// TestTracerAttribution nests spans the way the wire replay records them
// and checks parents and self times, including partitioner calls that
// run inside a fleet op after their submission has returned.
func TestTracerAttribution(t *testing.T) {
	tr := newTracer(0)
	var specCtx, lockCtx rt.PlanContext
	rtrip := tr.begin(spanRoundTrip, 5)
	eng := tr.begin(spanEngine, 5)
	fr := tr.beginLeaf(spanFastReject, 5, &specCtx)
	tr.endLeaf(fr, 0)
	pl := tr.beginLeaf(spanPlan, 0, &specCtx)
	tr.endLeaf(pl, 0)
	tr.end(eng, 2)
	tr.end(rtrip, 0)
	op := tr.begin(spanFleetOp, -1)
	// A readmission on the serialized context, then revalidation on the
	// speculation context whose submission has already returned.
	fr2 := tr.beginLeaf(spanFastReject, 9, &lockCtx)
	tr.endLeaf(fr2, 1)
	pl2 := tr.beginLeaf(spanPlan, 0, &specCtx)
	tr.endLeaf(pl2, 1)
	tr.end(op, 3)

	wantParent := map[int32]int32{rtrip: -1, eng: rtrip, fr: eng, pl: eng, op: -1, fr2: op, pl2: op}
	for idx, want := range wantParent {
		if got := tr.spans[idx].parent; got != want {
			t.Errorf("span %d (%s): parent %d, want %d", idx, spanNames[tr.spans[idx].kind], got, want)
		}
	}
	ls := tr.derive()
	if ls.submissions != 1 || ls.planCalls != 1 || ls.planN != 2 || ls.frHits != 1 || ls.fleetDisplace != 3 || ls.orphans != 0 {
		t.Errorf("derived %+v", ls)
	}
	if len(ls.infeasible) != 1 || ls.queueMax != 2 {
		t.Errorf("infeasible plans %v, max queue %d", ls.infeasible, ls.queueMax)
	}
	for k, self := range ls.self {
		if self < 0 {
			t.Errorf("%s: negative self time %d", spanNames[k], self)
		}
	}
}
