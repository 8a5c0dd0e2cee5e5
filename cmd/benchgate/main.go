// Command benchgate enforces the admission index's scaling contract on a
// `go test -json` benchmark stream produced in CI (BENCH_index.json): for
// every benchmark family carrying nodes=<n> subtests it compares ns/op at
// the largest fleet against the smallest and fails when the growth exceeds
// -max-ratio. Gating on the growth ratio rather than absolute ns keeps the
// check machine-independent: a per-submit cost linear in the fleet would
// grow ~100x over the nodes=100 → nodes=10000 sweep, while the indexed hot
// path stays flat up to a logarithmic factor.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of the test2json record shape benchgate reads.
// Package matters because test2json splits a benchmark result across
// output events — the name flushes before the timing continuation — so
// fragments must be reassembled into lines per package.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchLine matches an index benchmark result line, e.g.
// "BenchmarkSubmit/nodes=10000-8     28905     3913 ns/op    841 B/op".
var benchLine = regexp.MustCompile(`^(Benchmark[^\s/]+)/nodes=(\d+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	in := flag.String("in", "BENCH_index.json", "go test -json benchmark stream to gate")
	maxRatio := flag.Float64("max-ratio", 15, "max allowed ns/op growth, largest vs smallest fleet")
	flag.Parse()

	f, err := os.Open(*in)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()

	var lines []string
	pending := make(map[string]string) // per-package unterminated output
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Action != "output" {
			continue
		}
		buf := pending[ev.Package] + ev.Output
		for {
			i := strings.IndexByte(buf, '\n')
			if i < 0 {
				break
			}
			lines = append(lines, buf[:i])
			buf = buf[i+1:]
		}
		pending[ev.Package] = buf
	}
	if err := sc.Err(); err != nil {
		fatalf("reading %s: %v", *in, err)
	}
	for _, rest := range pending {
		if rest != "" {
			lines = append(lines, rest)
		}
	}
	gateIndex(lines, *in, *maxRatio)
}

// gateIndex fails when any nodes=<n> family's ns/op grows by more than
// maxRatio from the smallest fleet to the largest.
func gateIndex(lines []string, in string, maxRatio float64) {
	// ns[family][fleet size] = best observed ns/op. Taking the minimum over
	// repeated runs filters scheduling noise without hiding real growth.
	ns := make(map[string]map[int]float64)
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		nodes, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		if ns[m[1]] == nil {
			ns[m[1]] = make(map[int]float64)
		}
		if cur, ok := ns[m[1]][nodes]; !ok || v < cur {
			ns[m[1]][nodes] = v
		}
	}
	if len(ns) == 0 {
		fatalf("no nodes=<n> benchmark results in %s", in)
	}

	families := make([]string, 0, len(ns))
	for fam := range ns {
		families = append(families, fam)
	}
	sort.Strings(families)
	failed := false
	for _, fam := range families {
		sizes := make([]int, 0, len(ns[fam]))
		for n := range ns[fam] {
			sizes = append(sizes, n)
		}
		sort.Ints(sizes)
		if len(sizes) < 2 {
			fatalf("%s: only fleet size %d present, nothing to compare", fam, sizes[0])
		}
		lo, hi := sizes[0], sizes[len(sizes)-1]
		ratio := ns[fam][hi] / ns[fam][lo]
		verdict := "ok"
		if ratio > maxRatio {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("benchgate: %s nodes=%d %.1f ns/op -> nodes=%d %.1f ns/op: x%.2f growth over x%d fleet (limit x%.1f) %s\n",
			fam, lo, ns[fam][lo], hi, ns[fam][hi], ratio, hi/lo, maxRatio, verdict)
	}
	if failed {
		fatalf("per-submit cost grows super-linearly with the fleet")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
