package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The compare tool reads saved run outputs — files holding what
// perfbench printed, each run a "run {...}" line followed by its JSON
// result line — and reports, per workload and end-to-end metric, each
// side's median and quartiles. Given one set it reports each spread
// (interquartile distance over the median) against the metric's bound;
// given two it also gives a verdict:
//
//	better      B wins at least nine in ten pairs, and the medians differ
//	            by more than A's own interquartile distance
//	worse       B's median is worse than A's by more than the bound
//	same        neither
//	unresolved  a side's spread exceeds the bound, unless every B run
//	            beats (or loses to) every A run
//
// Pairs match runs of the same workload by seed.

// benchSpec is the part of BENCHMARK.json the compare tool reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// savedRun is one run read back from saved output.
type savedRun struct {
	info runInfo
	res  result
}

func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] RUNS_A [RUNS_B]")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %s: %v\n", *specPath, err)
		return 2
	}
	var sets [][]savedRun
	for _, p := range fs.Args() {
		runs, err := loadRuns(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			return 2
		}
		sets = append(sets, runs)
	}
	if !compareSets(spec, sets, out) {
		return 1
	}
	return 0
}

// loadRuns reads every regular file under path (or path itself).
func loadRuns(path string) ([]savedRun, error) {
	var files []string
	err := filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var runs []savedRun
	for _, f := range files {
		rs, err := parseRuns(f)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs found", path)
	}
	return runs, nil
}

func parseRuns(file string) ([]savedRun, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []savedRun
	var cur *runInfo
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "run {"):
			cur = &runInfo{}
			if err := json.Unmarshal([]byte(line[4:]), cur); err != nil {
				return nil, fmt.Errorf("%s: %w", file, err)
			}
		case strings.HasPrefix(line, `{"correct"`) && cur != nil:
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", file, err)
			}
			runs = append(runs, savedRun{info: *cur, res: r})
			cur = nil
		}
	}
	return runs, sc.Err()
}

// compareSets prints the report and returns false when any pairing is
// worse or unresolved (two sets) or any spread exceeds its bound (one
// set).
func compareSets(spec benchSpec, sets [][]savedRun, out io.Writer) bool {
	ok := true
	workloads := map[string]bool{}
	for _, set := range sets {
		for _, r := range set {
			if !r.info.Trace {
				workloads[r.info.Workload] = true
			}
		}
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			sides := make([]map[int64]float64, len(sets))
			for i, set := range sets {
				sides[i] = map[int64]float64{}
				for _, r := range set {
					if v, has := r.res.Metrics[m.Name]; has && r.info.Workload == wl && !r.info.Trace {
						sides[i][r.info.Seed] = v.Value
					}
				}
			}
			v := judge(sides, m.Better == "lower", m.Bound)
			if v.verdict == "worse" || v.verdict == "unresolved" || v.verdict == "too-spread" {
				ok = false
			}
			fmt.Fprintf(out, "%-13s %-27s %s\n", wl, m.Name, v.text)
		}
	}
	return ok
}

type judgement struct {
	verdict string
	text    string
}

// judge summarizes one workload × metric over one or two sides (values
// keyed by seed).
func judge(sides []map[int64]float64, lowerBetter bool, bound float64) judgement {
	type summary struct {
		vals       []float64
		q1, q2, q3 float64
		spread     float64
	}
	sum := make([]summary, len(sides))
	var b strings.Builder
	for i, side := range sides {
		s := &sum[i]
		for _, v := range side {
			s.vals = append(s.vals, v)
		}
		if len(s.vals) < 2 {
			return judgement{"unresolved", fmt.Sprintf("side %c has %d runs (need 2+)", 'A'+i, len(s.vals))}
		}
		s.q1, s.q2, s.q3 = quartiles(s.vals)
		s.spread = math.Abs(s.q3-s.q1) / math.Abs(s.q2)
		fmt.Fprintf(&b, "%c: median %.5g [q1 %.5g, q3 %.5g] spread %.3f (n=%d)  ", 'A'+i, s.q2, s.q1, s.q3, s.spread, len(s.vals))
	}
	if len(sides) == 1 {
		v := "steady"
		if sum[0].spread > bound {
			v = "too-spread"
		}
		fmt.Fprintf(&b, "bound %.3f -> %s", bound, v)
		return judgement{v, b.String()}
	}
	a, c := sum[0], sum[1]
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	var wins, pairs int
	for seed, va := range sides[0] {
		vb, has := sides[1][seed]
		if !has {
			continue
		}
		pairs++
		if better(vb, va) {
			wins++
		}
	}
	allBetter, allWorse := true, true
	for _, va := range a.vals {
		for _, vb := range c.vals {
			allBetter = allBetter && better(vb, va)
			allWorse = allWorse && better(va, vb)
		}
	}
	change := (c.q2 - a.q2) / math.Abs(a.q2)
	if lowerBetter {
		change = -change // positive = B better
	}
	fmt.Fprintf(&b, "B vs A %+.2f%% wins %d/%d bound %.3f -> ", 100*change, wins, pairs, bound)
	var v string
	switch {
	case a.spread > bound || c.spread > bound:
		switch {
		case allBetter:
			v = "better"
		case allWorse && -change > bound:
			v = "worse"
		default:
			v = "unresolved"
		}
	case -change > bound:
		v = "worse"
	case pairs > 0 && 10*wins >= 9*pairs && math.Abs(c.q2-a.q2) > math.Abs(a.q3-a.q1) && change > 0:
		v = "better"
	default:
		v = "same"
	}
	b.WriteString(v)
	return judgement{v, b.String()}
}
