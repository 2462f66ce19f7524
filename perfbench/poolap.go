package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/pathengine"
	"repro/internal/sqlengine"
	"repro/internal/sqljson"
	"repro/internal/store"
	"repro/internal/workload"
)

// poOLAP runs the nine Table-13 queries of Figure 3 over purchase
// orders stored as OSON behind the po_mv / po_item_dmdv JSON_TABLE
// views. References come from the REL storage mode of the same orders.
type poOLAP struct {
	nDocs     int
	docs      []jsondom.Value
	jsonBytes int
	queries   []string
	binds     [][][]jsondom.Value // per query: pool of bind sets
	refs      [][]digest          // per query, per bind set
	rr        roundRobin

	eng *sqlengine.Engine
	tab *store.Table

	def     *sqljson.TableDef // po_item_dmdv column tree, for the expansion probe
	es      *sqljson.ExpandState
	itemsNo *pathengine.Compiled
}

// bindPool is the number of distinct bind sets drawn per parameterized
// query; each has its own reference answer.
const bindPool = 8

const poDMDVColumns = `columns (
	reference varchar2(40) path '$.purchaseOrder.reference',
	requestor varchar2(40) path '$.purchaseOrder.requestor',
	costcenter varchar2(8) path '$.purchaseOrder.costcenter',
	instructions varchar2(80) path '$.purchaseOrder.instructions',
	nested path '$.purchaseOrder.items[*]' columns (
		itemno number path '$.itemno',
		partno varchar2(16) path '$.partno',
		description varchar2(40) path '$.description',
		quantity number path '$.quantity',
		unitprice number path '$.unitprice'
	)
)`

const poMVColumns = `columns (
	reference varchar2(40) path '$.purchaseOrder.reference',
	requestor varchar2(40) path '$.purchaseOrder.requestor',
	costcenter varchar2(8) path '$.purchaseOrder.costcenter',
	instructions varchar2(80) path '$.purchaseOrder.instructions',
	total number path '$.purchaseOrder.total'
)`

func (w *poOLAP) generate(seed int64) error {
	pos := make([]*workload.PO, w.nDocs)
	w.docs = make([]jsondom.Value, w.nDocs)
	for i := range pos {
		pos[i] = workload.GenPO(seed, i)
		w.docs[i] = pos[i].JSON()
		w.jsonBytes += len(jsontext.Serialize(w.docs[i]))
	}
	w.queries, _ = bench.OLAPQueries(w.nDocs) // query texts only; binds are drawn below
	w.rr = roundRobin{n: len(w.queries)}

	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	anyPO := func() *workload.PO { return pos[r.Intn(len(pos))] }
	part := func() jsondom.Value {
		po := anyPO()
		return jsondom.String(po.Items[r.Intn(len(po.Items))].PartNo)
	}
	// the range thresholds stay those of Table 13, so a seed changes
	// which orders, parts and requestors a query touches, not how much
	// of the data it selects
	num := func(n int) jsondom.Value { return jsondom.NumberFromInt(int64(n)) }
	draw := []func() []jsondom.Value{
		func() []jsondom.Value { return []jsondom.Value{jsondom.String(anyPO().Reference)} },
		nil,
		func() []jsondom.Value { return []jsondom.Value{part()} },
		func() []jsondom.Value { return []jsondom.Value{jsondom.String(anyPO().Requestor), num(5), num(400)} },
		func() []jsondom.Value { return []jsondom.Value{part(), part(), part()} },
		func() []jsondom.Value { return []jsondom.Value{part()} },
		nil,
		func() []jsondom.Value { return []jsondom.Value{num(8), num(700)} },
		nil,
	}
	if len(draw) != len(w.queries) {
		return fmt.Errorf("po-olap: %d bind drawers for %d queries", len(draw), len(w.queries))
	}
	w.binds = make([][][]jsondom.Value, len(w.queries))
	for qi, d := range draw {
		if d == nil {
			w.binds[qi] = [][]jsondom.Value{nil}
			continue
		}
		for k := 0; k < bindPool; k++ {
			w.binds[qi] = append(w.binds[qi], d())
		}
	}

	ref, err := loadPOREL(pos)
	if err != nil {
		return fmt.Errorf("po-olap: REL reference: %w", err)
	}
	w.refs = make([][]digest, len(w.queries))
	for qi, q := range w.queries {
		for _, params := range w.binds[qi] {
			res, err := ref.Exec(q, params...)
			if err != nil {
				return fmt.Errorf("po-olap: REL reference Q%d: %w", qi+1, err)
			}
			w.refs[qi] = append(w.refs[qi], digestRows(res.Rows))
		}
	}

	stmt, err := sqlengine.ParseStatement(`select * from po, json_table(jdoc, '$' ` + poDMDVColumns + `) jt`)
	if err != nil {
		return fmt.Errorf("po-olap: probe view: %w", err)
	}
	w.def = stmt.(*sqlengine.SelectStmt).From[1].(*sqlengine.JSONTableRef).Def
	w.es = sqljson.NewExpandState(w.def)
	w.itemsNo, err = pathengine.CompileText(`$.purchaseOrder.items[*].partno`)
	return err
}

// loadPOREL loads the orders in the REL storage mode of §6.3: master
// and detail tables with the views defined as a join.
func loadPOREL(pos []*workload.PO) (*sqlengine.Engine, error) {
	eng := sqlengine.New()
	for _, ddl := range []string{
		`create table purchase_master_tab (did number primary key, reference varchar2(40),
			requestor varchar2(40), costcenter varchar2(8), instructions varchar2(80), total number)`,
		`create table lineitem_detail_tab (po_did number, itemno number, partno varchar2(16),
			description varchar2(40), quantity number, unitprice number)`,
		`create view po_mv as select did, reference, requestor, costcenter, instructions, total
			from purchase_master_tab`,
		`create view po_item_dmdv as select m.did, m.reference, m.requestor, m.costcenter,
			m.instructions, l.itemno, l.partno, l.description, l.quantity, l.unitprice
			from purchase_master_tab m join lineitem_detail_tab l on m.did = l.po_did`,
	} {
		if _, err := eng.Exec(ddl); err != nil {
			return nil, err
		}
	}
	master, _ := eng.Catalog().Table("purchase_master_tab")
	detail, _ := eng.Catalog().Table("lineitem_detail_tab")
	for _, po := range pos {
		if _, err := master.Insert(store.Row{
			jsondom.NumberFromInt(po.DID), jsondom.String(po.Reference),
			jsondom.String(po.Requestor), jsondom.String(po.CostCenter),
			jsondom.String(po.Instructions), jsondom.NumberFromFloat(po.Total),
		}); err != nil {
			return nil, err
		}
		for _, it := range po.Items {
			if _, err := detail.Insert(store.Row{
				jsondom.NumberFromInt(po.DID), jsondom.NumberFromInt(it.ItemNo),
				jsondom.String(it.PartNo), jsondom.String(it.Description),
				jsondom.NumberFromInt(it.Quantity), jsondom.NumberFromFloat(it.UnitPrice),
			}); err != nil {
				return nil, err
			}
		}
	}
	return eng, nil
}

func (w *poOLAP) setup(tr *tracer) error {
	eng := sqlengine.New()
	if _, err := eng.Exec(`create table po (did number primary key, jdoc raw(0))`); err != nil {
		return err
	}
	tab, _ := eng.Catalog().Table("po")
	for i, doc := range w.docs {
		sp := tr.begin("oson.encode", 0, 0, false)
		b, err := oson.Encode(doc)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("po-olap: encode order %d: %w", i, err)
		}
		if err := insertTimed(tr, tab, store.Row{jsondom.NumberFromInt(int64(i)), jsondom.Binary(b)}); err != nil {
			return err
		}
	}
	for _, ddl := range []string{
		`create view po_mv as select po.did, jt.* from po, json_table(jdoc, '$' ` + poMVColumns + `) jt`,
		`create view po_item_dmdv as select po.did, jt.* from po, json_table(jdoc, '$' ` + poDMDVColumns + `) jt`,
	} {
		if _, err := eng.Exec(ddl); err != nil {
			return err
		}
	}
	w.eng, w.tab = eng, tab
	return nil
}

func (w *poOLAP) release() { w.eng, w.tab = nil, nil }

func (w *poOLAP) next(r *rand.Rand, id int64) *op {
	qi := w.rr.next(r)
	bi := r.Intn(len(w.binds[qi]))
	return &op{id: id, shape: fmt.Sprintf("Q%d", qi+1), sql: w.queries[qi],
		params: w.binds[qi][bi], want: w.refs[qi][bi]}
}

func (w *poOLAP) exec(o *op, tr *tracer, parent int) (answer, error) {
	sp := tr.begin("sqlengine.execute", parent, o.id, false)
	res, err := w.eng.Exec(o.sql, o.params...)
	tr.end(sp)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: res.Rows}, nil
}

func (w *poOLAP) check(o *op, a answer) bool { return digestRows(a.rows) == o.want }

func (w *poOLAP) probe(o *op, tr *tracer, r *rand.Rand) {
	probeSQL(w.eng, o, tr)
	row, ok := w.tab.Get(r.Intn(w.nDocs))
	if !ok {
		return
	}
	b, _ := row[1].(jsondom.Binary)
	sp := tr.begin("sqljson.expand", 0, o.id, true)
	err := w.es.Bind(b)
	if err == nil {
		err = w.es.Expand(func([]jsondom.Value) error { return nil })
	}
	tr.end(sp)
	if err != nil {
		return
	}
	d, err := oson.Parse(b)
	if err != nil {
		return
	}
	sp = tr.begin("pathengine.eval_oson", 0, o.id, true)
	_, _ = pathengine.EvalOson(d, w.itemsNo) // the probe times the call; its result is not needed
	tr.end(sp)
}

func (w *poOLAP) shapes() []shapeSQL {
	out := make([]shapeSQL, len(w.queries))
	for qi, q := range w.queries {
		out[qi] = shapeSQL{shape: fmt.Sprintf("Q%d", qi+1), sql: q, params: w.binds[qi][0]}
	}
	return out
}

func (w *poOLAP) engine() *sqlengine.Engine { return w.eng }

func (w *poOLAP) footprint() (int, int) { return w.tab.StorageBytes(), w.jsonBytes }

func (w *poOLAP) gauges(m map[string]float64) {
	m["store.redo_bytes_per_json_byte"] = float64(w.tab.RedoBytes()) / float64(w.jsonBytes)
	m["store.storage_bytes_per_doc"] = float64(w.tab.StorageBytes()) / float64(w.tab.NumRows())
	st := w.es.Stats()
	if st.ArenaGets > 0 {
		m["sqljson.arena_hit_ratio"] = float64(st.ArenaHits) / float64(st.ArenaGets)
	}
	if cells := st.Rows * int64(w.es.Width()); cells > 0 {
		m["sqljson.intern_hit_ratio"] = float64(st.InternHits) / float64(cells)
	}
}

// probeSQL replays an op's SQL text through the parser and the
// planner. Prepare counts as a hard parse in the engine's metrics, so
// probes run after the timed phase's counter snapshot.
func probeSQL(eng *sqlengine.Engine, o *op, tr *tracer) {
	sp := tr.begin("sqlengine.parse", 0, o.id, true)
	_, _ = sqlengine.ParseStatement(o.sql) // timed only; the op already ran this text
	tr.end(sp)
	sp = tr.begin("sqlengine.prepare", 0, o.id, true)
	_, _ = eng.Prepare(o.sql)
	tr.end(sp)
}
