package sqlengine

// Tests for the morsel-driven parallel operator layer (parexec.go):
// differential parallel-vs-serial results for grouped aggregation
// (code-space and generic partials, NULL groups, the implicit group),
// the parallel hash-join probe (inner/outer, residuals, generic keys),
// and the parallel sort (k-way merge, LIMIT budgets); the EXPLAIN
// ANALYZE par-agg/par-probe/par-sort stat lines; the sql.parexec.*
// metrics including the execution-time serial fallback; memory-budget
// errors surfacing from workers; prepared plans keeping their parExec
// flags; and goroutine hygiene across early Close of partially-drained
// merges and cancellation.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/jsondom"
)

// parExecPlanner returns planner options that force the partition
// fan-out onto every qualifying operator: GOMAXPROCS may be 1 in CI,
// so the degree is pinned and the row gates drop to 1.
func parExecPlanner() PlannerOptions {
	return PlannerOptions{
		DisableParallelScan: true,
		ParallelDegree:      3,
		ParallelExecMinRows: 1,
	}
}

// parExecModes is the differential matrix: the serial reference, the
// fan-out over a plain table scan, the fan-out absorbing a
// parallelScanOp base, and the fan-out over row-at-a-time workers.
func parExecModes() []plannerMode {
	return []plannerMode{
		{"serial", func(p *PlannerOptions) {
			p.DisableParallelScan = true
			p.DisableParallelExec = true
		}},
		{"parexec-scan", func(p *PlannerOptions) {
			p.DisableParallelScan = true
			p.ParallelDegree = 3
			p.ParallelExecMinRows = 1
		}},
		{"parexec-absorb", func(p *PlannerOptions) {
			p.ParallelMinRows = 1
			p.ParallelDegree = 3
			p.ParallelExecMinRows = 1
		}},
		{"parexec-row", func(p *PlannerOptions) {
			p.DisableParallelScan = true
			p.ParallelDegree = 3
			p.ParallelExecMinRows = 1
			p.DisableBatchExec = true
		}},
	}
}

// runParExecDifferential executes the query set under every mode and
// requires bit-for-bit agreement with the serial reference — including
// row order: the partition-order merges must reproduce serial
// first-seen group order, left-major probe order, and stable sort
// order, so none of these queries carries an ORDER BY it doesn't need.
func runParExecDifferential(t *testing.T, e *Engine, queries []string) {
	t.Helper()
	modes := parExecModes()
	results := make([][]string, len(modes))
	for mi, m := range modes {
		e.Planner = PlannerOptions{}
		m.set(&e.Planner)
		for _, q := range queries {
			r := mustExec(t, e, q)
			results[mi] = append(results[mi], fmt.Sprint(r.Rows))
		}
	}
	for mi := 1; mi < len(modes); mi++ {
		for qi, q := range queries {
			if results[0][qi] != results[mi][qi] {
				t.Errorf("%s diverges from serial on %s:\n  %s\nvs\n  %s",
					modes[mi].label, q, clip(results[mi][qi]), clip(results[0][qi]))
			}
		}
	}
}

// TestParExecAggDifferential: parallel grouped aggregation over the
// three-chunk IMC table — the dict-code and float-bits code-space
// partials (the vn NULL stretch exercises the shared NULL group), the
// generic rendered-key partials (expression keys, filter chains), and
// the implicit group including its empty-input all-NULL row.
func TestParExecAggDifferential(t *testing.T) {
	e := newBatchEngine(t)
	runParExecDifferential(t, e, []string{
		// code-space partials; no ORDER BY — first-seen order must hold
		`select vs, count(*), count(vn), sum(vn), avg(vn), min(vn), max(vn) from t group by vs`,
		`select vn, count(*) from t group by vn`,
		`select vs, min(vs), max(vs) from t group by vs`,
		// generic partials: expression key, filter chain above the scan
		`select mod(did, 5), count(*), sum(vn), min(vs) from t group by mod(did, 5)`,
		`select vs, count(*) from t where vn between 100 and 2200 group by vs`,
		`select vs, sum(vn) from t where vn is null group by vs`,
		// implicit group, populated and empty input
		`select count(*), count(vn), sum(vn), avg(vn), min(vn), max(vn) from t`,
		`select count(*), sum(vn), min(vn) from t where vn < 0`,
		// aggregation feeding a sort that also fans out
		`select vs, count(*) from t where mod(did, 2) = 0 group by vs order by count(*) desc, vs`,
	})
}

// TestParExecJoinDifferential: the parallel probe — code-space and
// rendered-key shared tables, NULL probe keys (every 11th order has no
// k), probe misses, the left-outer pad, residual conjuncts, and joined
// output feeding parallel aggregation and sort.
func TestParExecJoinDifferential(t *testing.T) {
	e := newJoinEngine(t)
	runParExecDifferential(t, e, []string{
		// big probe side left so the build stays on the right
		`select o.oid, c.vname from orders o join custs c on o.vk = c.vid`,
		`select o.oid, c.vname from orders o left join custs c on o.vk = c.vid`,
		`select o.oid, c.vname from orders o join custs c on o.vk = c.vid and o.vamt > 300`,
		`select o.oid, c.vname from orders o left join custs c on o.vk = c.vid and c.vid < 20`,
		// expression key declines the code-space table: generic workers
		`select o.oid, c.vname from orders o join custs c on mod(o.oid, 37) = c.vid`,
		// probe under a worker-side filter chain
		`select o.oid, c.vname from orders o join custs c on o.vk = c.vid where o.vamt < 400`,
		// joined rows feeding parallel aggregation and sort
		`select c.vname, count(*), sum(o.vamt) from orders o join custs c on o.vk = c.vid group by c.vname`,
		`select o.oid from orders o join custs c on o.vk = c.vid order by o.vamt desc, o.oid limit 40`,
	})
}

// TestParExecSortDifferential: per-partition sorted runs merged k-way
// — multi-key orders, descending keys, ties across partitions (vs has
// only 7 values, so every run holds every key), and LIMIT budgets.
func TestParExecSortDifferential(t *testing.T) {
	e := newBatchEngine(t)
	runParExecDifferential(t, e, []string{
		`select did from t order by did`,
		`select did, vn from t order by vn desc, did`,
		`select vs, did from t order by vs, did limit 40`,
		`select did from t where vn between 50 and 2400 order by vn desc limit 25`,
		`select did from t order by vs desc, vn desc limit 10`,
		`select did from t order by did limit 0`,
	})
}

// TestParExecExplainAnalyze: every parallel operator reports its
// fan-out on the EXPLAIN ANALYZE tree — mode, worker count, and the
// merge counters.
func TestParExecExplainAnalyze(t *testing.T) {
	e := newBatchEngine(t)
	e.Planner = parExecPlanner()
	for _, c := range []struct{ sql, want string }{
		{`explain analyze select vs, count(*) from t group by vs`, "par-agg: mode=dict-codes workers="},
		{`explain analyze select vn, count(*) from t group by vn`, "par-agg: mode=float-bits workers="},
		{`explain analyze select mod(did, 5), count(*) from t group by mod(did, 5)`, "par-agg: mode=generic workers="},
		{`explain analyze select did from t order by did`, "par-sort: workers="},
	} {
		if plan := explainPlan(t, e, c.sql); !strings.Contains(plan, c.want) {
			t.Errorf("%s missing %q:\n%s", c.sql, c.want, plan)
		}
	}
	je := newJoinEngine(t)
	je.Planner = parExecPlanner()
	for _, c := range []struct{ sql, want string }{
		{`explain analyze select o.oid, c.vname from orders o join custs c on o.vk = c.vid`,
			"par-probe: mode=float-bits workers="},
		{`explain analyze select o.oid, c.vname from orders o join custs c on mod(o.oid, 37) = c.vid`,
			"par-probe: mode=generic workers="},
	} {
		plan := explainPlan(t, je, c.sql)
		if !strings.Contains(plan, c.want) {
			t.Errorf("%s missing %q:\n%s", c.sql, c.want, plan)
		}
		if !strings.Contains(plan, "probe-rows=600") {
			t.Errorf("%s: probe-rows should count all 600 orders:\n%s", c.sql, plan)
		}
	}
}

// TestParExecMetrics: the sql.parexec.* counters move with the
// fan-outs — ops and workers on every parallel operator, the
// partial/merged group split on aggregations, probe rows on joins —
// and all of them surface through SHOW METRICS.
func TestParExecMetrics(t *testing.T) {
	e := newBatchEngine(t)
	e.Planner = parExecPlanner()
	ops0, wrk0 := mParExecOps.Value(), mParExecWorkers.Value()
	pg0, mg0 := mParExecPartialGroups.Value(), mParExecMergedGroups.Value()
	mustExec(t, e, `select vs, count(*) from t group by vs`)
	if d := mParExecOps.Value() - ops0; d != 1 {
		t.Errorf("parexec.ops moved %d, want 1", d)
	}
	if d := mParExecWorkers.Value() - wrk0; d < 2 {
		t.Errorf("parexec.workers moved %d, want >= 2", d)
	}
	pg, mg := mParExecPartialGroups.Value()-pg0, mParExecMergedGroups.Value()-mg0
	// 7 dictionary values present in every partition: more partials
	// than merged groups proves the merge actually folded
	if mg != 7 || pg <= mg {
		t.Errorf("partial/merged groups = %d/%d, want partials > merged = 7", pg, mg)
	}

	je := newJoinEngine(t)
	je.Planner = parExecPlanner()
	pr0 := mParExecProbeRows.Value()
	mustExec(t, je, `select o.oid, c.vname from orders o join custs c on o.vk = c.vid`)
	if d := mParExecProbeRows.Value() - pr0; d != 600 {
		t.Errorf("parexec.probe_rows moved %d, want 600", d)
	}

	res := mustExec(t, e, `show metrics`)
	for _, name := range []string{
		"sql.parexec.ops", "sql.parexec.workers", "sql.parexec.partial_groups",
		"sql.parexec.merged_groups", "sql.parexec.probe_rows",
		"sql.parexec.merge_stalls", "sql.parexec.serial_fallbacks",
	} {
		if _, ok := metricValue(t, res, name); !ok {
			t.Errorf("SHOW METRICS missing %s", name)
		}
	}
}

// TestParExecSerialFallback: a plan-time candidate whose partition
// split degenerates at execution (a one-row table cannot split two
// ways) must fall back to the serial operators, count the fallback,
// and still return exact results.
func TestParExecSerialFallback(t *testing.T) {
	e := newNumEngine(t, 1)
	e.Planner = parExecPlanner()
	fb0 := mParExecFallbacks.Value()
	r := mustExec(t, e, `select n, count(*) from nums group by n`)
	if len(r.Rows) != 1 {
		t.Fatalf("group rows = %d", len(r.Rows))
	}
	r = mustExec(t, e, `select n from nums order by n`)
	if len(r.Rows) != 1 {
		t.Fatalf("sort rows = %d", len(r.Rows))
	}
	if d := mParExecFallbacks.Value() - fb0; d < 2 {
		t.Errorf("parexec.serial_fallbacks moved %d, want >= 2", d)
	}
}

// TestParExecMemoryBudget: worker-side ec.grow failures surface as
// ErrMemoryBudget from the operator, with the fleet joined first.
func TestParExecMemoryBudget(t *testing.T) {
	e := newBatchEngine(t)
	e.Planner = parExecPlanner()
	e.Planner.MemoryBudget = 1024
	if _, err := e.Exec(`select did from t order by did`); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("parallel sort: want ErrMemoryBudget, got %v", err)
	}
	if _, err := e.Exec(`select vn, count(*) from t group by vn`); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("parallel agg: want ErrMemoryBudget, got %v", err)
	}
	// streaming parallel probes hold only in-flight batches: a join
	// whose output never materializes stays under a modest budget
	je := newJoinEngine(t)
	je.Planner = parExecPlanner()
	je.Planner.MemoryBudget = 1 << 20
	mustExec(t, je, `select o.oid, c.vname from orders o join custs c on o.vk = c.vid`)
}

// TestParExecMemoryBudgetStress: under budgets tiny enough that some
// workers fail their charge while others finish or abandon their
// partition, every parallel aggregation and sort must either return
// ErrMemoryBudget or the serial result — never merge an abandoned
// partial (which once indexed a nil representative-row slice and
// panicked). Degrees 2-8 vary how many partials race the failing one.
func TestParExecMemoryBudgetStress(t *testing.T) {
	e := newBatchEngine(t)
	queries := []string{
		`select vn, count(*) from t group by vn`, // fast code-space agg
		`select vs, count(*), min(vn) from t group by vs`,
		`select vs, count(*) from t where did >= 0 group by vs`, // generic agg
		`select did from t order by did`,
	}
	e.Planner = PlannerOptions{DisableParallelScan: true, DisableParallelExec: true}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = fmt.Sprint(mustExec(t, e, q).Rows)
	}
	rounds := 8
	if testing.Short() {
		rounds = 2
	}
	for degree := 2; degree <= 8; degree++ {
		for _, budget := range []int64{512, 4096, 32768, 1 << 18} {
			e.Planner = parExecPlanner()
			e.Planner.ParallelDegree = degree
			e.Planner.MemoryBudget = budget
			for round := 0; round < rounds; round++ {
				for i, q := range queries {
					r, err := e.Exec(q)
					switch {
					case errors.Is(err, ErrMemoryBudget):
					case err != nil:
						t.Fatalf("degree %d budget %d: %s: %v", degree, budget, q, err)
					case fmt.Sprint(r.Rows) != want[i]:
						t.Fatalf("degree %d budget %d: %s: rows differ from serial", degree, budget, q)
					}
				}
			}
		}
	}
}

// TestParExecPrepared: prepared plans keep their parExec flags across
// clonePlan, and bind parameters reaching worker-side filters resolve
// per execution.
func TestParExecPrepared(t *testing.T) {
	e := newBatchEngine(t)
	q := `select vs, count(*) from t where vn between %s and %s group by vs`
	e.Planner = PlannerOptions{DisableParallelScan: true, DisableParallelExec: true}
	wants := map[[2]int64]string{}
	for _, c := range [][2]int64{{0, 500}, {2048, 2599}, {700, 600}} {
		wants[c] = fmt.Sprint(mustExec(t, e, fmt.Sprintf(q, fmt.Sprint(c[0]), fmt.Sprint(c[1]))).Rows)
	}
	e.Planner = parExecPlanner()
	ps, err := e.Prepare(fmt.Sprintf(q, "?", "?"))
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range wants {
		for run := 0; run < 2; run++ { // second run re-clones the same template
			r, err := ps.Run(jsondom.NumberFromInt(c[0]), jsondom.NumberFromInt(c[1]))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(r.Rows); got != want {
				t.Errorf("prepared [%d,%d] run %d: %s, want %s", c[0], c[1], run, clip(got), clip(want))
			}
		}
	}
}

// TestParExecNoGoroutineLeak: every termination path of the parallel
// operators must join its workers — full drains, LIMIT closing a
// partially-drained probe merge and a partially-drained sort merge,
// and cancellation failing the workers mid-partition.
func TestParExecNoGoroutineLeak(t *testing.T) {
	e := newJoinEngine(t)
	e.Planner = parExecPlanner()
	baseline := runtime.NumGoroutine()
	mustExec(t, e, `select c.vname, count(*) from orders o join custs c on o.vk = c.vid group by c.vname`)
	// LIMIT 3 abandons most probe batches: workers parked on full
	// channels must unblock through the fleet abort
	mustExec(t, e, `select o.oid, c.vname from orders o join custs c on o.vk = c.vid limit 3`)
	mustExec(t, e, `select o.oid from orders o order by o.vamt desc limit 2`)
	mustExec(t, e, `select o.vk, count(*) from orders o group by o.vk limit 1`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, `select o.oid, c.vname from orders o join custs c on o.vk = c.vid`); err == nil {
		t.Fatal("cancelled parallel join should fail")
	}
	// 2600 rows split three ways keeps every worker above the 256-row
	// cancellation tick interval, so the abort fires inside the workers
	be := newBatchEngine(t)
	be.Planner = parExecPlanner()
	if _, err := be.QueryContext(ctx, `select vs, count(*) from t group by vs`); err == nil {
		t.Fatal("cancelled parallel aggregation should fail")
	}
	if _, err := be.QueryContext(ctx, `select did from t order by did`); err == nil {
		t.Fatal("cancelled parallel sort should fail")
	}
	waitGoroutines(t, baseline)
}

// TestParExecDefaultGateUntouched: with default planner options the
// 2048-row gate keeps small inputs serial — no fan-out, no fallback
// counting, identical results.
func TestParExecDefaultGateUntouched(t *testing.T) {
	e := newNumEngine(t, 100)
	ops0, fb0 := mParExecOps.Value(), mParExecFallbacks.Value()
	r := mustExec(t, e, `select n, count(*) from nums group by n order by n limit 5`)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if d := mParExecOps.Value() - ops0; d != 0 {
		t.Errorf("parexec.ops moved %d on a 100-row default-gate table", d)
	}
	if d := mParExecFallbacks.Value() - fb0; d != 0 {
		t.Errorf("parexec.serial_fallbacks moved %d below the gate", d)
	}
}

// TestKeyRenderAppend pins the append form of the rendered-key encoder
// to keyRender: the serial aggregation/join builders and the parallel
// workers build keys through keyRenderAppend into reused buffers, and
// any byte divergence from keyRender would silently change grouping.
func TestKeyRenderAppend(t *testing.T) {
	vals := []jsondom.Value{
		jsondom.Null{},
		jsondom.String(""),
		jsondom.String("abc"),
		jsondom.String("\x00weird"),
		jsondom.Bool(true),
		jsondom.Bool(false),
		jsondom.MustNumber("1"),
		jsondom.MustNumber("1.0"), // must collide with Double(1)
		jsondom.Double(1),
		jsondom.Double(-2.5),
		jsondom.Double(1e300), // exponent canonicalization branch
		jsondom.NewObject(),   // no numeric form: the "x" bucket
	}
	var buf []byte
	for _, v := range vals {
		want := keyRender(v) + "\x00"
		buf = keyRenderAppend(buf[:0], v)
		if string(buf) != want {
			t.Errorf("keyRenderAppend(%v) = %q, want %q", v, buf, want)
		}
	}
	// multi-column keys concatenate in place
	buf = buf[:0]
	for _, v := range vals {
		buf = keyRenderAppend(buf, v)
	}
	want := ""
	for _, v := range vals {
		want += keyRender(v) + "\x00"
	}
	if string(buf) != want {
		t.Errorf("concatenated keys diverge: %q vs %q", buf, want)
	}
	if keyRender(jsondom.MustNumber("1.0")) != keyRender(jsondom.Double(1)) {
		t.Error("1.0 and Double(1) should share a group key")
	}
}
