// Tests for JSON_TABLE column pruning and fused prefilters: prefilters
// never drop a document the residual WHERE keeps (column coercions
// included), EXPLAIN reports the columns evaluated and the conjuncts
// fused per clause, and parallel worker clones carry both.

package sqlengine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bson"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/store"
)

// newEncodedEngine creates table t(id, j) holding docs in one of the
// three document encodings (text, bson, oson).
func newEncodedEngine(t *testing.T, mode string, docs []string) *Engine {
	t.Helper()
	e := New()
	colType := "varchar2(0) check (j is json)"
	if mode != "text" {
		colType = "raw(0)"
	}
	mustExec(t, e, `create table t (id number primary key, j `+colType+`)`)
	tab, _ := e.Catalog().Table("t")
	for i, d := range docs {
		dom := jsontext.MustParse(d)
		var v jsondom.Value
		switch mode {
		case "text":
			v = jsondom.String(jsontext.SerializeString(dom))
		case "bson":
			b, err := bson.Encode(dom)
			if err != nil {
				t.Fatal(err)
			}
			v = jsondom.Binary(b)
		default:
			b, err := oson.Encode(dom)
			if err != nil {
				t.Fatal(err)
			}
			v = jsondom.Binary(b)
		}
		if _, err := tab.Insert(store.Row{jsondom.NumberFromInt(int64(i + 1)), v}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// prefilterDocs puts numbers, numeric strings, booleans, nulls and
// containers under a NUMBER column (q) and a VARCHAR2 column (p).
var prefilterDocs = []string{
	`{"items":[{"q":"9","p":"a"}]}`,
	`{"items":[{"q":9,"p":9}]}`,
	`{"items":[{"q":10,"p":"9"}]}`,
	`{"items":[{"q":"1e1","p":true}]}`,
	`{"items":[{"q":true,"p":"true"}]}`,
	`{"items":[{"q":false,"p":false}]}`,
	`{"items":[{"q":null,"p":null}]}`,
	`{"items":[{"q":"abc","p":1e1}]}`,
	`{"items":[{"q":[9],"p":["9"]}]}`,
	`{"items":[{"q":{"a":9},"p":{"a":"9"}}]}`,
	`{"items":[{"q":8.5,"p":"8.5"},{"q":" 9","p":"b"}]}`,
	// a NESTED PATH match that is itself an array: lax column paths
	// unwrap it, so q and p come from different elements
	`{"items":[[{"q":9},{"p":"9"}]]}`,
	`{"items":[]}`,
	`{}`,
}

// TestPrefilterMatchesResidual pins prefilter-on == prefilter-off: a
// JSON_EXISTS prefilter compares what the column holds after its own
// coercion, so no document the residual WHERE keeps is pruned. Static
// and bind-time conjuncts, single and fused, under all three encodings.
func TestPrefilterMatchesResidual(t *testing.T) {
	queries := []struct {
		sql    string
		params []jsondom.Value
	}{
		{`select id from v where q > 8 order by id`, nil},
		{`select id from v where q = 9 order by id`, nil},
		{`select id from v where q = 1 order by id`, nil},
		{`select id from v where q = 0 order by id`, nil},
		{`select id from v where q != 9 order by id`, nil},
		{`select id from v where q in (1, 9) order by id`, nil},
		{`select id from v where q between 8 and 10 order by id`, nil},
		{`select id from v where 8 < q order by id`, nil},
		{`select id from v where p = '9' order by id`, nil},
		{`select id from v where p = 'true' order by id`, nil},
		{`select id from v where p = 'false' order by id`, nil},
		{`select id from v where p = '10' order by id`, nil},
		{`select id from v where p > '8' order by id`, nil},
		{`select id from v where p in ('9', 'true') order by id`, nil},
		{`select id from v where p = 9 order by id`, nil},
		{`select id from v where q = '9' order by id`, nil},
		{`select id from v where q > 8 and p = '9' order by id`, nil},
		{`select id from v where q >= 9 and q <= 10 and p != 'a' order by id`, nil},
		{`select id from v where q > ? order by id`, []jsondom.Value{jsondom.Number("8")}},
		{`select id from v where p = ? order by id`, []jsondom.Value{jsondom.String("true")}},
		{`select id from v where p = ? order by id`, []jsondom.Value{jsondom.Number("9")}},
		{`select id from v where q > ? and p = ? order by id`, []jsondom.Value{jsondom.Number("8"), jsondom.String("9")}},
		{`select id from v where q = 9 and p = ? order by id`, []jsondom.Value{jsondom.String("9")}},
	}
	for _, mode := range []string{"text", "bson", "oson"} {
		e := newEncodedEngine(t, mode, prefilterDocs)
		mustExec(t, e, `create view v as select t.id, jt.* from t, json_table(j, '$' columns (
			nested path '$.items[*]' columns (q number path '$.q', p varchar2(8) path '$.p'))) jt`)
		for _, q := range queries {
			e.Planner = PlannerOptions{}
			on := fmt.Sprint(mustExec(t, e, q.sql, q.params...).Rows)
			e.Planner = PlannerOptions{DisablePrefilter: true}
			off := fmt.Sprint(mustExec(t, e, q.sql, q.params...).Rows)
			if on != off {
				t.Errorf("%s %s %v: prefilter on %s, off %s", mode, q.sql, q.params, on, off)
			}
		}
	}
}

// TestJSONTableExplainPruneAndFuse checks the JSONTable line: the
// columns expansion evaluates, and per clause the conjuncts fused into
// one prefilter. Conjuncts over sibling clauses stay separate.
func TestJSONTableExplainPruneAndFuse(t *testing.T) {
	e := newEncodedEngine(t, "oson", prefilterDocs)
	mustExec(t, e, `create view v as select t.id, jt.* from t, json_table(j, '$' columns (
		r varchar2(8) path '$.r',
		nested path '$.items[*]' columns (q number path '$.q', p varchar2(8) path '$.p'))) jt`)
	mustExec(t, e, `create view vs as select t.id, jt.* from t, json_table(j, '$' columns (
		nested path '$.items[*]' columns (q number path '$.q'),
		nested path '$.items[*]' columns (p varchar2(8) path '$.p'))) jt`)
	cases := []struct {
		sql  string
		want []string
		not  []string
	}{
		{`select * from v`, []string{"cols=3/3)"}, nil},
		{`select count(*) from v`, []string{"cols=0/3)"}, nil},
		{`select id, p from v`, []string{"cols=1/3)"}, nil},
		{`select id from v order by q`, []string{"cols=1/3)"}, nil},
		{`select r, count(*) from v group by r`, []string{"cols=1/3)"}, nil},
		{`select sum(q) from v group by p`, []string{"cols=2/3)"}, nil},
		{`select id, lag(q, 1, q) over (order by id) from v`, []string{"cols=1/3)"}, nil},
		{`select x.p from (select * from v) x`, []string{"cols=1/3)"}, nil},
		{`select id from v where q > 8 and p = '9'`,
			[]string{"cols=2/3", "prefilters=[$.items[*]:2]"}, nil},
		{`select id from v where q > 8 and r = 'x' and p = '9'`,
			[]string{"$:1", "$.items[*]:2"}, []string{"dyn-prefilters"}},
		{`select id from v where q > ? and p = '9'`,
			[]string{"dyn-prefilters=[$.items[*]:2]"}, []string{" prefilters="}},
		{`select id from vs where q > 8 and p = '9'`,
			[]string{"prefilters=[$.items[*]:1 $.items[*]:1]"}, []string{":2"}},
	}
	for _, c := range cases {
		r := mustExec(t, e, "explain "+c.sql, jsondom.Number("8"))
		var jt string
		for _, row := range r.Rows {
			if line := fmt.Sprint(row[0]); strings.Contains(line, "JSONTable(") {
				jt = line
			}
		}
		for _, w := range c.want {
			if !strings.Contains(jt, w) {
				t.Errorf("%s: JSONTable line %q lacks %q", c.sql, jt, w)
			}
		}
		for _, n := range c.not {
			if strings.Contains(jt, n) {
				t.Errorf("%s: JSONTable line %q has %q", c.sql, jt, n)
			}
		}
	}
}

// TestParallelWorkerCarriesPruneAndPrefilters checks that a parallel
// worker's JSON_TABLE clone keeps the template's column mask and
// prefilters, so it prints and evaluates the same.
func TestParallelWorkerCarriesPruneAndPrefilters(t *testing.T) {
	e := newEncodedEngine(t, "oson", prefilterDocs)
	e.Planner = PlannerOptions{ParallelDegree: 3, ParallelExecMinRows: 1}
	stmt, err := ParseStatement(`select jt.p, count(*) from t, json_table(j, '$' columns (r varchar2(8) path '$.r',
		nested path '$.items[*]' columns (q number path '$.q', p varchar2(8) path '$.p'))) jt
		where jt.q > 8 and jt.p != 'x' group by jt.p`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.planSelectStmt(stmt.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	var agg *groupAggOp
	var walk func(rowSource)
	walk = func(s rowSource) {
		if g, ok := s.(*groupAggOp); ok {
			agg = g
		}
		if n, ok := s.(opNode); ok {
			for _, c := range n.opChildren() {
				walk(c)
			}
		}
	}
	walk(plan.root)
	if agg == nil || !agg.parExec {
		t.Fatal("no parallel aggregation in the plan")
	}
	pp := findParPipe(agg.in, 3)
	if pp == nil {
		t.Fatal("no parallel pipeline under the aggregation")
	}
	var tmpl, worker *jsonTableOp
	for _, op := range pp.chain {
		if j, ok := op.(*jsonTableOp); ok {
			tmpl = j
		}
	}
	for s := pp.workerSource(0, 1, plan.env); s != nil; {
		if j, ok := s.(*jsonTableOp); ok {
			worker = j
			break
		}
		n, ok := s.(opNode)
		if !ok || len(n.opChildren()) == 0 {
			break
		}
		s = n.opChildren()[0]
	}
	if tmpl == nil || worker == nil {
		t.Fatalf("JSON_TABLE template %v, worker %v", tmpl, worker)
	}
	want := "JSONTable(jt cols=2/3 prefilters=[$.items[*]:2])"
	if got := tmpl.opName(); got != want {
		t.Errorf("template %q, want %q", got, want)
	}
	if got := worker.opName(); got != tmpl.opName() {
		t.Errorf("worker %q, template %q", got, tmpl.opName())
	}
}
