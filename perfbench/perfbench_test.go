package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/jsondom"
)

// corrupting wraps a runner and damages every answer it returns, the
// way a wrong engine result would look to the checker.
type corrupting struct{ runner }

func (c corrupting) exec(o *op, tr *tracer, parent int) (answer, error) {
	a, err := c.runner.exec(o, tr, parent)
	switch {
	case len(a.rows) > 0 && len(a.rows[0]) > 0:
		row := append([]jsondom.Value(nil), a.rows[0]...)
		row[0] = jsondom.String("corrupted")
		a.rows = append([][]jsondom.Value{row}, a.rows[1:]...)
	case a.rows != nil:
		a.rows = append(a.rows, []jsondom.Value{jsondom.Null{}})
	case a.doc != nil:
		a.doc = jsondom.NewObject().Set("corrupted", jsondom.Bool(true))
	default:
		a.id++
	}
	return a, err
}

func newSmall(t *testing.T, w runner) runner {
	t.Helper()
	if err := w.generate(7); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCheckerCountsCorruptedAnswers(t *testing.T) {
	for name, w := range map[string]runner{
		"po-olap":      &poOLAP{nDocs: 120},
		"nobench-imc":  &noBench{nDocs: 600, imc: true},
		"nobench-text": &noBench{nDocs: 300},
		"doc-crud":     &docCRUD{nDocs: 300},
	} {
		t.Run(name, func(t *testing.T) {
			w := newSmall(t, w)
			good := &loop{w: w, r: rand.New(rand.NewSource(1))}
			for i := 0; i < 60; i++ {
				good.step(nil)
			}
			if good.failed != 0 {
				t.Fatalf("clean answers: %d of %d failed: %v", good.failed, good.attempted, good.errs)
			}
			bad := &loop{w: corrupting{w}, r: rand.New(rand.NewSource(2))}
			for i := 0; i < 60; i++ {
				bad.step(nil)
			}
			if bad.failed != bad.attempted {
				t.Fatalf("corrupted answers: %d of %d counted as failed", bad.failed, bad.attempted)
			}
		})
	}
}

func TestDigest(t *testing.T) {
	a := [][]jsondom.Value{{jsondom.Number("1.5"), jsondom.String("x")}, {jsondom.Number("2"), jsondom.Null{}}}
	b := [][]jsondom.Value{{jsondom.Number("2.0"), jsondom.Null{}}, {jsondom.Double(1.5), jsondom.String("x")}}
	if digestRows(a) != digestRows(b) {
		t.Fatal("row order or number spelling changed the digest")
	}
	c := [][]jsondom.Value{{jsondom.Number("1.5"), jsondom.String("y")}, {jsondom.Number("2"), jsondom.Null{}}}
	if digestRows(a) == digestRows(c) {
		t.Fatal("a changed value kept the digest")
	}
	if digestRows(a) == digestRows(a[:1]) {
		t.Fatal("a missing row kept the digest")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestPercentile(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(100-i) * time.Millisecond
	}
	if p := percentile(ds, 0.5); p != 50*time.Millisecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(ds, 0.99); p != 99*time.Millisecond {
		t.Fatalf("p99 = %v", p)
	}
}

func TestOperatorSelf(t *testing.T) {
	tree := []string{
		"Project  (est-rows=1)  (rows=1 batches=2 time=10ms)",
		"  GroupAgg(keys=0 aggs=1)  (est-rows=1)  (rows=1 batches=2 time=9ms)",
		"    JSONTable(jt)  (est-rows=2000)  (rows=30 batches=2 time=7ms)",
		"      expand: docs=2000 rows=30 pruned=0",
		"      TableScan(po)  (est-rows=2000)  (rows=2000 batches=2001 time=1ms)",
		"plan cache: miss",
	}
	got := operatorSelf(tree)
	want := map[string]opSelf{
		"Project":   {1, 1},
		"GroupAgg":  {2, 1},
		"JSONTable": {6, 30},
		"TableScan": {1, 2000},
	}
	if len(got) != len(want) {
		t.Fatalf("kinds = %v", got)
	}
	for k, w := range want {
		if g := got[k]; g.rows != w.rows || g.self < w.self-1e-9 || g.self > w.self+1e-9 {
			t.Errorf("%s = %+v, want %+v", k, g, w)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op.Q1", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sqlengine.execute", Start: 10, End: 90},
		{ID: 3, Name: "sqlengine.parse", Start: 200, End: 230, Probe: true},
	}}
	for _, s := range tr.selfTimes() {
		want := map[string]time.Duration{"op.Q1": 20, "sqlengine.execute": 80, "sqlengine.parse": 30}[s.Name]
		if s.Self != want {
			t.Errorf("%s self = %v, want %v", s.Name, s.Self, want)
		}
	}
}

func TestJudge(t *testing.T) {
	side := func(vs ...float64) map[int64]float64 {
		m := map[int64]float64{}
		for i, v := range vs {
			m[int64(i)] = v
		}
		return m
	}
	base := side(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		b    map[int64]float64
		want string
	}{
		{side(100, 100, 100, 101, 99, 100, 101, 99, 100, 100), "same"},
		{side(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "better"},
		{side(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), "worse"},
		{side(50, 150, 60, 140, 100, 70, 130, 90, 110, 100), "unresolved"},
	}
	for _, c := range cases {
		if got := judge([]map[int64]float64{base, c.b}, true, 0.1); got.verdict != c.want {
			t.Errorf("verdict %s, want %s: %s", got.verdict, c.want, got.text)
		}
	}
	if got := judge([]map[int64]float64{base}, true, 0.1); got.verdict != "steady" {
		t.Errorf("one steady side: %s", got.text)
	}
}

func TestParseRuns(t *testing.T) {
	out := `run {"workload":"po-olap","seed":4,"seconds":10,"trace":false,"nproc":2,"gomaxprocs":2,"go":"go1.24.0"}
metric ops_per_s 80 1/s (n=800)
{"correct":true,"attempted":810,"failed":0,"metrics":{"ops_per_s":{"value":80,"unit":"1/s"}}}
`
	path := t.TempDir() + "/run.txt"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := parseRuns(path)
	if err != nil || len(runs) != 1 {
		t.Fatalf("runs %v, err %v", runs, err)
	}
	if r := runs[0]; r.info.Workload != "po-olap" || r.info.Seed != 4 || r.res.Metrics["ops_per_s"].Value != 80 {
		t.Fatalf("parsed %+v", r)
	}
}

// TestResultMatchesBenchmarkJSON runs a small workload untraced and
// traced and checks that each prints exactly the metrics BENCHMARK.json
// lists, with their units.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		res, err := run("po-olap", &poOLAP{nDocs: 120}, 3, 300*time.Millisecond, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
			}
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d", traced, res.Correct, res.Attempted)
		}
	}
}
