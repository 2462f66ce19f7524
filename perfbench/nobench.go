package main

import (
	"fmt"
	"math/rand"

	"repro/internal/imc"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/pathengine"
	"repro/internal/sqlengine"
	"repro/internal/store"
	"repro/internal/workload"
)

// noBench runs NOBENCH Q1-Q11 (Figures 5/6). With imc set the
// documents are served from OSON-IMC plus the three §6.4 virtual
// column vectors (VC-IMC mode) and checked against text evaluation of
// the same queries; without it they stay JSON text (TEXT mode) and are
// checked against OSON-IMC evaluation.
type noBench struct {
	nDocs     int
	imc       bool
	texts     []string
	jsonBytes int
	queries   []string
	paths     []*pathengine.Compiled // the main path of each query, for the eval probe
	refs      []digest
	rr        roundRobin

	eng *sqlengine.Engine
	tab *store.Table
	mem *imc.Store
}

// noBenchPaths is the leading SQL/JSON path of each NOBENCH query.
var noBenchPaths = []string{
	`$.str1`, `$.nested_obj.str`, `$.sparse_110`, `$.sparse_220`, `$.str1`, `$.num`,
	`$.dyn1`, `$.nested_arr[*]?(@ == "alpha")`, `$.sparse_550`, `$.thousandth`, `$.nested_obj.num`,
}

// noBenchVCs are the three virtual columns of §6.4's VC-IMC mode.
var noBenchVCs = []struct{ name, ddl string }{
	{"jdoc$str1", `alter table nobench add virtual column jdoc$str1 as json_value(jdoc, '$.str1')`},
	{"jdoc$num", `alter table nobench add virtual column jdoc$num as json_value(jdoc, '$.num' returning number)`},
	{"jdoc$dyn1", `alter table nobench add virtual column jdoc$dyn1 as json_value(jdoc, '$.dyn1' returning number)`},
}

func (w *noBench) generate(seed int64) error {
	w.texts = make([]string, w.nDocs)
	for i := range w.texts {
		w.texts[i] = jsontext.SerializeString(workload.GenNoBench(seed, i))
		w.jsonBytes += len(w.texts[i])
	}
	w.queries = workload.NoBenchQueries("nobench", "jdoc", w.nDocs)
	w.rr = roundRobin{n: len(w.queries)}
	for _, p := range noBenchPaths {
		c, err := pathengine.CompileText(p)
		if err != nil {
			return err
		}
		w.paths = append(w.paths, c)
	}
	// the reference runs in the other storage mode
	if err := w.load(nil, !w.imc); err != nil {
		return fmt.Errorf("%s: reference load: %w", w.name(), err)
	}
	for qi, q := range w.queries {
		res, err := w.eng.Exec(q)
		if err != nil {
			return fmt.Errorf("%s: reference Q%d: %w", w.name(), qi+1, err)
		}
		w.refs = append(w.refs, digestRows(res.Rows))
	}
	w.release()
	return nil
}

func (w *noBench) name() string {
	if w.imc {
		return "nobench-imc"
	}
	return "nobench-text"
}

// load builds a fresh engine over the texts; withIMC populates the
// OSON column store, plus the VC vectors when the virtual columns are
// defined (VC-IMC mode, the imc workload). The imc workload's reference
// keeps the virtual columns without vectors, so its queries evaluate
// JSON text.
func (w *noBench) load(tr *tracer, withIMC bool) error {
	eng := sqlengine.New()
	if _, err := eng.Exec(`create table nobench (did number, jdoc varchar2(0) check (jdoc is json))`); err != nil {
		return err
	}
	tab, _ := eng.Catalog().Table("nobench")
	for i, text := range w.texts {
		if err := insertTimed(tr, tab, store.Row{jsondom.NumberFromInt(int64(i)), jsondom.String(text)}); err != nil {
			return err
		}
	}
	w.eng, w.tab, w.mem = eng, tab, nil
	if withIMC {
		w.mem = imc.NewStore(tab)
		sp := tr.begin("imc.populate_oson", 0, 0, false)
		err := w.mem.PopulateOSON("jdoc")
		tr.end(sp)
		if err != nil {
			return err
		}
		eng.AttachIMC("nobench", w.mem)
	}
	if !w.imc {
		return nil
	}
	for _, vc := range noBenchVCs {
		if _, err := eng.Exec(vc.ddl); err != nil {
			return err
		}
	}
	if !withIMC {
		return nil
	}
	for _, vc := range noBenchVCs {
		sp := tr.begin("imc.populate_vc", 0, 0, false)
		err := w.mem.PopulateVC(vc.name)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	eng.AttachIMC("nobench", w.mem)
	return nil
}

func (w *noBench) setup(tr *tracer) error { return w.load(tr, w.imc) }

func (w *noBench) release() { w.eng, w.tab, w.mem = nil, nil, nil }

func (w *noBench) next(r *rand.Rand, id int64) *op {
	qi := w.rr.next(r)
	return &op{id: id, shape: fmt.Sprintf("Q%d", qi+1), sql: w.queries[qi], want: w.refs[qi], idx: qi}
}

func (w *noBench) exec(o *op, tr *tracer, parent int) (answer, error) {
	sp := tr.begin("sqlengine.execute", parent, o.id, false)
	res, err := w.eng.Exec(o.sql)
	tr.end(sp)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: res.Rows}, nil
}

func (w *noBench) check(o *op, a answer) bool { return digestRows(a.rows) == o.want }

func (w *noBench) probe(o *op, tr *tracer, r *rand.Rand) {
	probeSQL(w.eng, o, tr)
	row := r.Intn(w.nDocs)
	path := w.paths[o.idx]
	if w.imc {
		v, ok := w.mem.Substitute(row, "jdoc")
		b, isBin := v.(jsondom.Binary)
		if !ok || !isBin {
			return
		}
		d, err := oson.Parse(b)
		if err != nil {
			return
		}
		sp := tr.begin("pathengine.eval_oson", 0, o.id, true)
		_, _ = pathengine.EvalOson(d, path) // timed only
		tr.end(sp)
		return
	}
	text := []byte(w.texts[row])
	sp := tr.begin("jsontext.parse", 0, o.id, true)
	_, _ = jsontext.Parse(text) // timed only
	tr.end(sp)
	tr.setBytes(sp, len(text))
	sp = tr.begin("pathengine.eval_text", 0, o.id, true)
	_, _ = pathengine.EvalText(text, path, 0) // timed only
	tr.end(sp)
}

func (w *noBench) shapes() []shapeSQL {
	out := make([]shapeSQL, len(w.queries))
	for qi, q := range w.queries {
		out[qi] = shapeSQL{shape: fmt.Sprintf("Q%d", qi+1), sql: q}
	}
	return out
}

func (w *noBench) engine() *sqlengine.Engine { return w.eng }

func (w *noBench) footprint() (int, int) {
	stored := w.tab.StorageBytes()
	if w.mem != nil {
		stored += w.mem.MemoryBytes()
	}
	return stored, w.jsonBytes
}

func (w *noBench) gauges(m map[string]float64) {
	m["store.redo_bytes_per_json_byte"] = float64(w.tab.RedoBytes()) / float64(w.jsonBytes)
	m["store.storage_bytes_per_doc"] = float64(w.tab.StorageBytes()) / float64(w.tab.NumRows())
	if w.mem != nil {
		m["imc.memory_bytes"] = float64(w.mem.MemoryBytes())
	}
}
