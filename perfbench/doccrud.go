package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/searchindex"
	"repro/internal/sqlengine"
	"repro/internal/workload"
)

// docCRUD is the document-store mix: a NOBENCH collection with the full
// search index and persistent DataGuide, taking Puts of new documents
// beside Gets by id, ad-hoc keyword finds and a prepared count. The
// answers are known from the generator: document i has id i+1 and a
// unique str1, and carries sparse_110 when i%100 == 11.
type docCRUD struct {
	nDocs     int
	seed      int64
	texts     []string // preloaded documents
	preHashes []uint64

	hashes    []uint64 // per loaded document (index i has id i+1)
	sparse    int64    // loaded documents carrying sparse_110
	jsonBytes int
	keys      []int // seeded order of find keys over the preloaded documents

	db  *core.DB
	col *core.Collection
	sx  *searchindex.Index
	cnt *sqlengine.PreparedStmt
}

const (
	crudFindSQL  = `select did from nb where json_textcontains(jdoc, '$.str1', '%s')`
	crudCountSQL = `select count(*) from nb where json_exists(jdoc, '$.sparse_110')`
)

func hasSparse110(i int) bool { return i%100 == 11 }

func str1(i int) string { return fmt.Sprintf("GBRDC%07d", i) }

func (w *docCRUD) generate(seed int64) error {
	w.seed = seed
	w.texts = make([]string, w.nDocs)
	w.preHashes = make([]uint64, w.nDocs)
	for i := range w.texts {
		w.texts[i] = jsontext.SerializeString(workload.GenNoBench(seed, i))
		w.preHashes[i] = hashText(w.texts[i])
	}
	return nil
}

func (w *docCRUD) setup(tr *tracer) error {
	db := core.Open()
	col, err := db.CreateCollection("nb")
	if err != nil {
		return err
	}
	if err := col.EnableSearchIndex(true); err != nil {
		return err
	}
	w.hashes = append(w.hashes[:0], w.preHashes...)
	w.sparse, w.jsonBytes = 0, 0
	for i, text := range w.texts {
		// PutText is the row insert with its IS JSON check and the
		// search-index observer
		sp := tr.begin("store.insert", 0, 0, false)
		_, err := col.PutText(text)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("doc-crud: preload %d: %w", i, err)
		}
		w.jsonBytes += len(text)
		if hasSparse110(i) {
			w.sparse++
		}
	}
	cnt, err := db.SQL().Prepare(crudCountSQL)
	if err != nil {
		return err
	}
	w.db, w.col, w.cnt = db, col, cnt
	w.sx, _ = col.SearchIndex()
	w.keys = nil
	return nil
}

func (w *docCRUD) release() { w.db, w.col, w.sx, w.cnt = nil, nil, nil, nil }

func (w *docCRUD) next(r *rand.Rand, id int64) *op {
	loaded := len(w.hashes)
	switch u := r.Float64(); {
	case u < 0.25:
		i := loaded
		return &op{id: id, shape: "put", write: true, idx: i, doc: workload.GenNoBench(w.seed, i), wantN: int64(i + 1)}
	case u < 0.60:
		i := r.Intn(loaded)
		return &op{id: id, shape: "get", idx: i, wantN: int64(i + 1)}
	case u < 0.90:
		// each find asks for a key not asked before (until the seeded
		// order is used up), so its SQL text misses the plan cache
		if len(w.keys) == 0 {
			w.keys = r.Perm(w.nDocs)
		}
		i := w.keys[0]
		w.keys = w.keys[1:]
		return &op{id: id, shape: "find", idx: i, sql: fmt.Sprintf(crudFindSQL, str1(i)), wantN: int64(i + 1)}
	default:
		return &op{id: id, shape: "count", sql: crudCountSQL, wantN: w.sparse}
	}
}

func (w *docCRUD) exec(o *op, tr *tracer, parent int) (answer, error) {
	var a answer
	var err error
	switch o.shape {
	case "put":
		sp := tr.begin("core.put", parent, o.id, false)
		a.id, err = w.col.Put(o.doc)
		tr.end(sp)
	case "get":
		sp := tr.begin("core.get", parent, o.id, false)
		a.doc, err = w.col.Get(int64(o.idx + 1))
		tr.end(sp)
	case "find":
		sp := tr.begin("sqlengine.execute", parent, o.id, false)
		var res *sqlengine.Result
		res, err = w.db.Query(o.sql)
		tr.end(sp)
		if err == nil {
			a.rows = res.Rows
		}
	default:
		sp := tr.begin("sqlengine.execute", parent, o.id, false)
		var res *sqlengine.Result
		res, err = w.cnt.Query()
		tr.end(sp)
		if err == nil {
			a.rows = res.Rows
		}
	}
	return a, err
}

// singleInt reports whether rows is exactly one row of one integer n.
func singleInt(rows [][]jsondom.Value, n int64) bool {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return false
	}
	num, ok := rows[0][0].(jsondom.Number)
	if !ok {
		return false
	}
	got, ok := num.Int64()
	return ok && got == n
}

func (w *docCRUD) check(o *op, a answer) bool {
	switch o.shape {
	case "put":
		if a.id != o.wantN {
			return false
		}
		text := jsontext.SerializeString(o.doc)
		w.hashes = append(w.hashes, hashText(text))
		w.jsonBytes += len(text)
		if hasSparse110(o.idx) {
			w.sparse++
		}
		return true
	case "get":
		return a.doc != nil && hashText(jsontext.SerializeString(a.doc)) == w.hashes[o.idx]
	default:
		return singleInt(a.rows, o.wantN)
	}
}

func (w *docCRUD) probe(o *op, tr *tracer, r *rand.Rand) {
	switch o.shape {
	case "put":
		text := jsontext.Serialize(o.doc)
		sp := tr.begin("jsontext.valid", 0, o.id, true)
		jsontext.Valid(text)
		tr.end(sp)
		tr.setBytes(sp, len(text))
	case "get":
		rid, ok := w.col.Table().LookupPK(jsondom.NumberFromInt(int64(o.idx + 1)))
		if !ok {
			return
		}
		row, _ := w.col.Table().Get(rid)
		s, _ := row[1].(jsondom.String)
		sp := tr.begin("jsontext.parse", 0, o.id, true)
		_, _ = jsontext.Parse([]byte(s)) // timed only
		tr.end(sp)
		tr.setBytes(sp, len(s))
	case "find":
		probeSQL(w.db.SQL(), o, tr)
		sp := tr.begin("searchindex.keyword_lookup", 0, o.id, true)
		w.sx.DocsWithKeyword(str1(o.idx))
		tr.end(sp)
	default:
		probeSQL(w.db.SQL(), o, tr)
		sp := tr.begin("searchindex.path_lookup", 0, o.id, true)
		w.sx.DocsWithPath("$.sparse_110")
		tr.end(sp)
	}
}

func (w *docCRUD) shapes() []shapeSQL {
	return []shapeSQL{
		{shape: "find", sql: fmt.Sprintf(crudFindSQL, str1(w.nDocs/2))},
		{shape: "count", sql: crudCountSQL},
	}
}

func (w *docCRUD) engine() *sqlengine.Engine { return w.db.SQL() }

func (w *docCRUD) footprint() (int, int) { return w.col.Table().StorageBytes(), w.jsonBytes }

func (w *docCRUD) gauges(m map[string]float64) {
	tab := w.col.Table()
	m["store.redo_bytes_per_json_byte"] = float64(tab.RedoBytes()) / float64(w.jsonBytes)
	m["store.storage_bytes_per_doc"] = float64(tab.StorageBytes()) / float64(tab.NumRows())
	m["dataguide.distinct_paths"] = float64(w.sx.DistinctPathCount())
}
