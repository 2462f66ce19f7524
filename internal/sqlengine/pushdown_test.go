package sqlengine

// End-to-end tests for the planner's pushdown machinery: vectorized
// scans over in-memory vectors, JSON_EXISTS prefilters in all
// translatable shapes, view predicate pushdown, and WHERE conjuncts
// pushed into join inputs.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/imc"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/store"
	"repro/internal/workload"
)

// newVCEngine loads numbered docs with a number VC and a string VC,
// populated as in-memory vectors.
func newVCEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table t (did number, jdoc varchar2(0) check (jdoc is json))`)
	words := []string{"apple", "banana", "cherry", "date", "elder"}
	for i := 0; i < 50; i++ {
		doc := `{"n":` + string(jsondom.NumberFromInt(int64(i))) + `,"s":"` + words[i%5] + `"}`
		mustExec(t, e, `insert into t values (?, ?)`,
			jsondom.NumberFromInt(int64(i)), jsondom.String(doc))
	}
	mustExec(t, e, `alter table t add virtual column vn as json_value(jdoc, '$.n' returning number)`)
	mustExec(t, e, `alter table t add virtual column vs as json_value(jdoc, '$.s')`)
	tab, _ := e.Catalog().Table("t")
	mem := imc.NewStore(tab)
	if err := mem.PopulateVC("vn"); err != nil {
		t.Fatal(err)
	}
	if err := mem.PopulateVC("vs"); err != nil {
		t.Fatal(err)
	}
	e.AttachIMC("t", mem)
	return e
}

func TestVectorPushdownShapes(t *testing.T) {
	e := newVCEngine(t)
	cases := []struct {
		sql  string
		want int
	}{
		{`select did from t where vn = 7`, 1},
		{`select did from t where 7 = vn`, 1},
		{`select did from t where vn < 3`, 3},
		{`select did from t where 3 > vn`, 3},
		{`select did from t where vn between 10 and 19`, 10},
		{`select did from t where vn >= 48`, 2},
		{`select did from t where vs = 'banana'`, 10},
		{`select did from t where vn between ? and ?`, 5},
		// JSON_VALUE is rewritten onto the VC, then vector-pushed
		{`select did from t where json_value(jdoc, '$.n' returning number) = 7`, 1},
		// mixed: one pushable conjunct + one residual
		{`select did from t where vn < 10 and mod(did, 2) = 0`, 5},
	}
	for _, c := range cases {
		var params []jsondom.Value
		if c.sql == `select did from t where vn between ? and ?` {
			params = []jsondom.Value{jsondom.Number("10"), jsondom.Number("14")}
		}
		r := mustExec(t, e, c.sql, params...)
		if len(r.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(r.Rows), c.want)
		}
	}
	// agreement with the unoptimized plan on every shape
	e.Planner.DisableVectorFilter = true
	e.Planner.DisableVCRewrite = true
	for _, c := range cases {
		var params []jsondom.Value
		if c.sql == `select did from t where vn between ? and ?` {
			params = []jsondom.Value{jsondom.Number("10"), jsondom.Number("14")}
		}
		r := mustExec(t, e, c.sql, params...)
		if len(r.Rows) != c.want {
			t.Errorf("unoptimized %s: got %d rows, want %d", c.sql, len(r.Rows), c.want)
		}
	}
}

const pushdownView = `create view items_v as
	select po.did, jt.* from po, json_table(jdoc, '$' columns (
		reference varchar2(40) path '$.purchaseOrder.podate',
		nested path '$.purchaseOrder.items[*]' columns (
			name varchar2(16) path '$.name',
			price number path '$.price',
			quantity number path '$.quantity'
		)
	)) jt`

func TestPrefilterShapesThroughView(t *testing.T) {
	e := newPOEngine(t)
	mustExec(t, e, pushdownView)
	cases := []struct {
		sql  string
		want int
	}{
		// equality on a nested column
		{`select name from items_v where name = 'phone'`, 1},
		// flipped comparison
		{`select name from items_v where 300 < price`, 2},
		// IN list
		{`select name from items_v where name in ('phone', 'chair')`, 2},
		// BETWEEN
		{`select name from items_v where price between 50 and 110`, 2},
		// master-level column
		{`select count(*) from items_v where reference = '2015-03-04'`, 1},
		// parameterized
		{`select name from items_v where name = ?`, 1},
		// no prefilterable shape (function call) still works
		{`select name from items_v where length(name) = 5`, 3},
		// the view as a join input: the conjunct is pushed into it
		{`select v.name from items_v v join po p on v.did = p.did where v.price > 300`, 2},
	}
	runAll := func(label string) {
		t.Helper()
		for _, c := range cases {
			var params []jsondom.Value
			if c.sql == `select name from items_v where name = ?` {
				params = []jsondom.Value{jsondom.String("ipad")}
			}
			r := mustExec(t, e, c.sql, params...)
			if len(r.Rows) != c.want {
				t.Errorf("%s %s: got %d rows, want %d", label, c.sql, len(r.Rows), c.want)
			}
		}
	}
	runAll("optimized")
	e.Planner.DisablePrefilter = true
	runAll("no-prefilter")
}

// TestJoinPushdownNoBenchQ11 plans NOBENCH Q11 in VC-IMC mode: the
// range conjunct on a.$.num, rewritten onto the jdoc$num vector, runs
// as a zone-mapped batch kernel inside the join's left input, the
// hash table is built on that small side, and no Filter is left above
// the join.
func TestJoinPushdownNoBenchQ11(t *testing.T) {
	const n = 4 * imc.ChunkSize
	e := New()
	mustExec(t, e, `create table nobench (did number, jdoc varchar2(0) check (jdoc is json))`)
	tab, _ := e.Catalog().Table("nobench")
	for i := 0; i < n; i++ {
		doc := jsondom.String(jsontext.SerializeString(workload.GenNoBench(1, i)))
		if _, err := tab.Insert(store.Row{jsondom.NumberFromInt(int64(i)), doc}); err != nil {
			t.Fatal(err)
		}
	}
	q11 := workload.NoBenchQueries("nobench", "jdoc", n)[10]
	textCount := fmt.Sprint(mustExec(t, e, q11).Rows)

	mustExec(t, e, `alter table nobench add virtual column jdoc$num as json_value(jdoc, '$.num' returning number)`)
	attachIMC(t, e, "nobench", "jdoc$num")
	e.Planner.ParallelDegree = 1
	plan := explainPlan(t, e, "explain analyze "+q11)
	lines := strings.Split(plan, "\n")
	join := -1
	for i, l := range lines {
		if strings.Contains(l, "HashJoin") {
			join = i
			break
		}
	}
	if join < 0 || !strings.Contains(lines[join], "build=left") {
		t.Fatalf("want a build=left hash join:\n%s", plan)
	}
	if strings.Contains(strings.Join(lines[:join], "\n"), "Filter") {
		t.Errorf("a Filter stayed above the join:\n%s", plan)
	}
	// the left (build) input is the first child: its scan and its
	// kernel line come before the right input's scan
	if len(lines) < join+4 || !strings.Contains(lines[join+1], "TableScan(nobench batch vec-filters=1)") ||
		!strings.Contains(plan, "vec[jdoc$num between]") {
		t.Errorf("build input is not the vectorized range scan:\n%s", plan)
	}
	if !strings.Contains(plan, "pruned=3") {
		t.Errorf("zone maps did not prune the three chunks outside the range:\n%s", plan)
	}
	if got := fmt.Sprint(mustExec(t, e, q11).Rows); got != textCount {
		t.Errorf("VC-IMC Q11 = %s, text evaluation = %s", got, textCount)
	}
}

// TestJoinPushdownOuterJoin: a conjunct over the null-supplying side
// of a LEFT JOIN stays in a Filter above the join (pushing it would
// drop the NULL-padded rows it is meant to select), while a conjunct
// over the preserved side is pushed into that side's input.
func TestJoinPushdownOuterJoin(t *testing.T) {
	e := newVCEngine(t)
	e.Planner.ParallelDegree = 1
	sql := `select a.did from t a left join t b on a.vn = b.vn + 45 where b.did is null and a.did < 10 order by a.did`
	plan := explainPlan(t, e, "explain "+sql)
	filter, join := strings.Index(plan, "Filter"), strings.Index(plan, "HashJoin(left-outer)")
	if filter < 0 || join < 0 || filter > join {
		t.Fatalf("the null-side conjunct is not filtered above the join:\n%s", plan)
	}
	if !strings.Contains(plan[join:], "Filter") {
		t.Errorf("the preserved-side conjunct was not pushed into the left input:\n%s", plan)
	}
	// a.did 0..9 all miss (b.vn + 45 >= 45 never equals a.vn < 10)
	if got := len(mustExec(t, e, sql).Rows); got != 10 {
		t.Errorf("anti-join returned %d rows, want 10", got)
	}
}

// TestJoinPushdownBindParams: pushed conjuncts carrying bind
// parameters — one compiled into a vector kernel at Open, one a row
// filter — return the right rows for two different binds, through a
// prepared statement and through the plan cache.
func TestJoinPushdownBindParams(t *testing.T) {
	e := newVCEngine(t)
	// vn = did and vs cycles every 5 docs, so a.did in [lo, hi] joins
	// every b.did < maxB with the same residue mod 5
	want := func(lo, hi, maxB int) string {
		var rows [][]jsondom.Value
		for a := lo; a <= hi; a++ {
			for b := a % 5; b < maxB; b += 5 {
				rows = append(rows, []jsondom.Value{jsondom.NumberFromInt(int64(a)), jsondom.NumberFromInt(int64(b))})
			}
		}
		return fmt.Sprint(rows)
	}
	const sql = `select a.did, b.did from t a join t b on a.vs = b.vs where a.vn between ? and ? and b.did < ? order by a.did, b.did`
	ps, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][3]int{{10, 14, 20}, {40, 49, 7}} {
		args := []jsondom.Value{jsondom.NumberFromInt(int64(c[0])), jsondom.NumberFromInt(int64(c[1])), jsondom.NumberFromInt(int64(c[2]))}
		r, err := ps.Run(args...)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(r.Rows); got != want(c[0], c[1], c[2]) {
			t.Errorf("prepared %v: %s, want %s", c, clip(got), clip(want(c[0], c[1], c[2])))
		}
		// literal text: the second shape instantiates from the plan cache
		lit := fmt.Sprintf(`select a.did, b.did from t a join t b on a.vs = b.vs where a.vn between %d and %d and b.did < %d order by a.did, b.did`, c[0], c[1], c[2])
		if got := fmt.Sprint(mustExec(t, e, lit).Rows); got != want(c[0], c[1], c[2]) {
			t.Errorf("cached %v: %s, want %s", c, clip(got), clip(want(c[0], c[1], c[2])))
		}
	}
}

func TestMustExec(t *testing.T) {
	e := New()
	e.MustExec(`create table m (v number)`)
	defer func() {
		if recover() == nil {
			t.Fatal("MustExec should panic on error")
		}
	}()
	e.MustExec(`select * from nope`)
}

func TestHasAggregateAndWindowHelpers(t *testing.T) {
	parse := func(sql string) *SelectStmt {
		t.Helper()
		stmt, err := ParseStatement(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*SelectStmt)
	}
	agg := parse(`select sum(v) + count(*) from t where abs(v) in (1, max(v)) or v between 1 and min(v)`)
	for _, it := range agg.Items {
		if !hasAggregate(it.Expr) {
			t.Error("aggregate not detected in select item")
		}
	}
	if !hasAggregate(agg.Where) {
		t.Error("aggregate not detected in where")
	}
	plain := parse(`select v, upper(s) from t where v is null and s like 'a%'`)
	for _, it := range plain.Items {
		if hasAggregate(it.Expr) || hasWindow(it.Expr) {
			t.Error("false positive")
		}
	}
	win := parse(`select 1 + lag(v) over (order by v), nvl(row_number() over (order by v), 0) from t`)
	for _, it := range win.Items {
		if !hasWindow(it.Expr) {
			t.Error("window not detected")
		}
	}
}
