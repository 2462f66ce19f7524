// Command perfbench is the repository's benchmark. It drives the
// engine in-process through its public packages on four workloads — a
// closed loop of one client — checks every answer against a reference
// computed before timing, and prints one JSON result line:
//
//	perfbench --workload po-olap --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it measures the same workload twice (tracing off,
// then on), records spans in memory, replays sampled ops through single
// layers (probes), and prints the per-layer metrics of BENCHMARK.json.
//
//	perfbench compare DIR_A DIR_B
//
// compares two sets of saved run outputs (see compare.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run loads its workload afresh at least minSetupReps times,
// and more (up to maxSetupReps) while the loads took under
// setupBudget in total; setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 40
	setupBudget  = 1500 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	spanDir := fs.String("span-dir", ".bench_build/spans", "where a traced run writes its spans")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := run(*name, mk(), *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spanDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line)) // wrong answers show as "correct": false
}

// runInfo is printed ahead of the result line so saved outputs carry
// the conditions they were measured under.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
}

func run(name string, w runner, seed int64, d time.Duration, traced bool, spanDir string) (*result, error) {
	info, _ := json.Marshal(runInfo{Workload: name, Seed: seed, Seconds: d.Seconds(), Trace: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()})
	fmt.Printf("run %s\n", info)

	if err := w.generate(seed); err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	before := readCounters()
	var setupTimes []float64
	for spent := time.Duration(0); len(setupTimes) < minSetupReps ||
		(len(setupTimes) < maxSetupReps && spent < setupBudget); {
		w.release()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		dt := time.Since(t0)
		spent += dt
		setupTimes = append(setupTimes, dt.Seconds())
	}
	setupDelta := readCounters().sub(before)
	setupReps := len(setupTimes)
	setupS := median(setupTimes)

	l := &loop{w: w, r: rand.New(rand.NewSource(seed))}
	l.warmUp(300 * time.Millisecond)
	heapLoaded := heapInuse()
	res := &result{Metrics: map[string]metric{}}
	if !traced {
		ph := l.measure(nil, d)
		endToEnd(res, w, ph, setupS, setupReps, heapLoaded)
	} else {
		plain, ph := l.measureAlternating(tr, d, 10)
		lm := layerMetrics(w, tr, ph, setupDelta, setupReps, l)
		lm["bench.trace_overhead_share"] = 1 - ph.opsPerSec()/plain.opsPerSec()
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: lm[m.name], Unit: m.unit}
			fmt.Printf("layer %-48s %.6g %s (%s is better) -> %s\n", m.name, lm[m.name], m.unit, m.better, m.moves)
		}
		printSelfTimes(tr)
		if path, err := tr.write(spanDir, fmt.Sprintf("%s-seed%d", name, seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Printf("spans %s (%d)\n", path, len(tr.spans))
		}
	}
	res.Attempted, res.Failed = l.attempted, l.failed
	res.Correct = l.failed == 0
	fmt.Printf("failed_op_share %.6f share (attempted=%d failed=%d)\n",
		float64(l.failed)/float64(max(l.attempted, 1)), l.attempted, l.failed)
	for _, e := range l.errs {
		fmt.Printf("failure %s\n", e)
	}
	return res, nil
}

// endToEnd fills the untraced run's metrics and prints them by name,
// unit and sample count.
func endToEnd(res *result, w runner, ph *phaseStats, setupS float64, setupReps int, heapLoaded uint64) {
	all := ph.all()
	n := len(all)
	stored, jsonBytes := w.footprint()
	put := func(name, unit string, v float64, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("metric %s %.6g %s %s\n", name, v, unit, note)
	}
	samples := fmt.Sprintf("(n=%d)", n)
	put("ops_per_s", "1/s", ph.opsPerSec(), samples)
	put("latency_p50_ms", "ms", ms(percentile(all, 0.50)), samples)
	put("latency_p95_ms", "ms", ms(percentile(all, 0.95)), fmt.Sprintf("(n=%d, %d beyond)", n, beyond(n, 0.95)))
	put("setup_s", "s", setupS, fmt.Sprintf("(median of %d)", setupReps))
	put("stored_bytes_per_json_byte", "ratio", float64(stored)/float64(jsonBytes), "")
	put("alloc_bytes_per_op", "B", float64(ph.allocBytes)/float64(n), samples)
	put("heap_inuse_mb", "MB", float64(heapLoaded)/(1<<20), "(after set-up and warm-up)")
	fmt.Printf("detail latency_p99_ms %.6g ms (n=%d, %d beyond)\n", ms(percentile(all, 0.99)), n, beyond(n, 0.99))
	fmt.Printf("detail cpu_ms_per_op %.6g ms\n", ms(ph.cpu)/float64(n))
	fmt.Printf("detail wall_ops_per_s %.6g 1/s (client time included)\n", float64(n)/ph.wall.Seconds())
	fmt.Printf("detail heap_inuse_end_mb %.6g MB (after the timed phase)\n", float64(ph.heapInuse)/(1<<20))
	// the document mix also splits reads from writes
	var reads, writes []time.Duration
	for shape, ds := range ph.lat {
		if shape == "put" {
			writes = append(writes, ds...)
		} else if shape == "get" || shape == "find" || shape == "count" {
			reads = append(reads, ds...)
		}
	}
	for _, g := range []struct {
		name string
		ds   []time.Duration
	}{{"read", reads}, {"write", writes}} {
		if len(g.ds) == 0 {
			continue
		}
		fmt.Printf("detail %s_p50_us %.6g us (n=%d)\n", g.name, us(percentile(g.ds, 0.50)), len(g.ds))
		fmt.Printf("detail %s_p99_us %.6g us (n=%d, %d beyond)\n", g.name, us(percentile(g.ds, 0.99)), len(g.ds), beyond(len(g.ds), 0.99))
	}
	shapes := make([]string, 0, len(ph.lat))
	for s := range ph.lat {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	for _, s := range shapes {
		fmt.Printf("detail stmt.%s.p50_ms %.6g ms (n=%d)\n", s, ms(percentile(ph.lat[s], 0.5)), len(ph.lat[s]))
	}
}

// beyond is the number of samples above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
