package main

import (
	"fmt"
	"math/rand"

	"repro/internal/jsondom"
	"repro/internal/sqlengine"
	"repro/internal/store"
)

// op is one operation of a workload's seeded stream, drawn before it
// runs, with the answer it must produce.
type op struct {
	id     int64
	shape  string // query shape: Q1..Q11, put, get, find or count
	write  bool
	sql    string
	params []jsondom.Value
	want   digest // query workloads: reference digest
	idx    int    // doc-crud: generator index of the document involved
	doc    jsondom.Value
	wantN  int64 // doc-crud: expected id or count

	rowsOut int // rows the answer carried
}

// answer is what the public call returned.
type answer struct {
	rows [][]jsondom.Value
	doc  jsondom.Value
	id   int64
}

// shapeSQL is one query shape with representative binds, for the
// traced run's EXPLAIN ANALYZE.
type shapeSQL struct {
	shape  string
	sql    string
	params []jsondom.Value
}

// runner runs one named benchmark workload. generate builds inputs and
// reference answers from the seed (untimed); setup loads a fresh engine
// from the inputs (the set-up time); next draws an op; exec makes the
// op's public call (the timed part); check compares the answer with
// the reference and advances the workload's model of the stored state.
type runner interface {
	generate(seed int64) error
	setup(tr *tracer) error
	release()
	next(r *rand.Rand, id int64) *op
	exec(o *op, tr *tracer, parent int) (answer, error)
	check(o *op, a answer) bool
	// probe replays o's inputs through single layers under probe spans.
	probe(o *op, tr *tracer, r *rand.Rand)
	shapes() []shapeSQL
	engine() *sqlengine.Engine
	// footprint reports stored bytes (tables plus in-memory store) and
	// the compact JSON text bytes loaded so far.
	footprint() (stored, jsonBytes int)
	// gauges adds the workload's end-state per-layer readings.
	gauges(m map[string]float64)
}

var workloads = map[string]func() runner{
	"po-olap":      func() runner { return &poOLAP{nDocs: 2000} },
	"nobench-imc":  func() runner { return &noBench{nDocs: 16384, imc: true} },
	"nobench-text": func() runner { return &noBench{nDocs: 4096} },
	"doc-crud":     func() runner { return &docCRUD{nDocs: 16384} },
}

// insertTimed inserts one row under a store.insert span.
func insertTimed(tr *tracer, tab *store.Table, row store.Row) error {
	sp := tr.begin("store.insert", 0, 0, false)
	_, err := tab.Insert(row)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("insert into %s: %w", tab.Name, err)
	}
	return nil
}

// roundRobin draws query shapes in seeded round-robin: every cycle runs
// each of n shapes once, in a fresh seeded order.
type roundRobin struct {
	n     int
	order []int
}

func (rr *roundRobin) next(r *rand.Rand) int {
	if len(rr.order) == 0 {
		rr.order = r.Perm(rr.n)
	}
	q := rr.order[0]
	rr.order = rr.order[1:]
	return q
}
