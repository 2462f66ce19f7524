// Batch execution spine: selection bitmaps, dictionary codes, and
// pooled row batches flow up the plan instead of dying at the scan.
//
// Three layers cooperate here:
//
//   - Batch / rowArena: the unit of flow. A Batch is a pooled header
//     over up to batchSize row slices; the rows themselves are carved
//     from arena slabs and NEVER recycled, so any consumer may retain
//     them indefinitely (drainSource keeps them in the Result, sorts
//     and joins buffer them). Only the header and its backing pointer
//     array return to the pool.
//
//   - batchSource / batchProducer: the operator contract. A batch
//     producer's NextBatch returns nil at end of input and otherwise a
//     non-empty batch valid until the producer's next NextBatch or
//     Close call. The max argument is the consumer's remaining-row
//     budget (LIMIT): producers use it to stop materializing mid-chunk;
//     it is a hint, so consumers still enforce exact limits.
//
//   - vector fast paths: when a pipeline breaker sits directly on a
//     scan whose key columns are IMC vector-backed, grouped aggregation
//     hashes uint32 dictionary codes (or float64 bits) instead of
//     rendered key strings, and hash joins build and probe in code
//     space, materializing only the rows that survive the join.
//
// All mutation of Batch internals lives in this file (the add/reset/
// truncate methods); fsdmvet's immutcheck enforces that no other file
// writes Batch fields, which is what makes the pooling safe to reason
// about.

package sqlengine

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/imc"
	"repro/internal/jsondom"
)

// batchSize is the row capacity of one batch, aligned with
// imc.ChunkSize so a batch scan drains at most one selection bitmap
// per NextBatch call.
const batchSize = imc.ChunkSize

// arenaSlabValues caps the number of jsondom.Value slots carved per
// arena slab allocation (one alloc per ~8 batches of 8-column rows).
// Slabs start at arenaFirstSlab and double up to the cap, so a point
// query returning one row does not pay for a full slab (~256 KB).
const (
	arenaSlabValues = 8192
	arenaFirstSlab  = 64
)

// Batch is a chunk of rows flowing between batch-aware operators.
// Headers are pooled: a batch returned by NextBatch is valid until the
// producer's next NextBatch or Close call. The row slices inside are
// freshly allocated (arena-carved) and safe to retain indefinitely.
type Batch struct {
	rows [][]jsondom.Value
}

// Len returns the number of rows in the batch; 0 on the nil batch, so
// stats wrappers can observe an end-of-input result directly.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.rows)
}

// Row returns row i. The returned slice outlives the batch header.
func (b *Batch) Row(i int) []jsondom.Value { return b.rows[i] }

// add appends one row.
func (b *Batch) add(row []jsondom.Value) { b.rows = append(b.rows, row) }

// truncate keeps the first n rows (a LIMIT cut), clearing the dropped
// pointers so the pooled header does not pin their rows.
func (b *Batch) truncate(n int) {
	if n >= len(b.rows) {
		return
	}
	tail := b.rows[n:]
	for i := range tail {
		tail[i] = nil
	}
	b.rows = b.rows[:n]
}

// reset empties the batch for pool reuse, clearing row pointers so a
// pooled header never pins rows from a finished query.
func (b *Batch) reset() {
	for i := range b.rows {
		b.rows[i] = nil
	}
	b.rows = b.rows[:0]
}

// batchPool recycles batch headers (the [][]jsondom.Value backing
// arrays), the only allocation a per-batch handoff would otherwise
// repeat. Rows are never pooled.
var batchPool = sync.Pool{
	New: func() any { return &Batch{rows: make([][]jsondom.Value, 0, batchSize)} },
}

func getBatch() *Batch { return batchPool.Get().(*Batch) }

// putBatch returns a batch header to the pool; nil is a no-op so
// producers can recycle their "previous batch" slot unconditionally.
func putBatch(b *Batch) {
	if b == nil {
		return
	}
	b.reset()
	batchPool.Put(b)
}

// rowArena carves per-row []jsondom.Value slices out of large slabs:
// one slab allocation serves many rows, slab sizes growing
// geometrically from arenaFirstSlab to arenaSlabValues. Carved rows
// use a full slice expression, so appending to one can never clobber a
// neighbor, and slabs are ordinary GC-managed memory — rows stay valid
// for as long as anything references them, which is what lets batch
// consumers retain them without a copy.
type rowArena struct {
	slab []jsondom.Value
	next int // size of the next slab; 0 before the first
}

// alloc carves an n-value row from the current slab.
func (a *rowArena) alloc(n int) []jsondom.Value {
	if n > len(a.slab) {
		size := max(a.next, arenaFirstSlab)
		a.next = min(2*size, arenaSlabValues)
		a.slab = make([]jsondom.Value, max(size, n))
	}
	row := a.slab[:n:n]
	a.slab = a.slab[n:]
	return row
}

// batchProducer delivers rows in batches. max > 0 is the consumer's
// remaining-row budget: producers use it to stop materializing
// mid-chunk (LIMIT pushdown), but it is a hint — consumers enforce
// exact truncation themselves. A non-nil result always holds at least
// one row; nil means end of input.
type batchProducer interface {
	NextBatch(ec *ExecCtx, max int) (*Batch, error)
}

// batchSource is a rowSource that can also deliver its output in
// batches. Parents pick one mode at Open and stick with it.
type batchSource interface {
	rowSource
	batchProducer
	// batchReady reports whether this execution will actually produce
	// batches — batch execution enabled for the plan and supported by
	// the operator's input. Callers fall back to Next when false.
	batchReady() bool
}

// batchInput returns in as an actually-batching source, or nil when
// the input cannot produce batches this execution.
func batchInput(in rowSource) batchSource {
	if b, ok := in.(batchSource); ok && b.batchReady() {
		return b
	}
	return nil
}

// rowNextFunc is the row-at-a-time pull signature shared by rowSource
// Next and batchCursor.next; pipeline breakers build through it so one
// loop serves both consumption modes.
type rowNextFunc func(*ExecCtx) ([]jsondom.Value, bool, error)

// batchNextFunc returns the pull function for a pipeline breaker's
// build loop: the input's batch drain when the input batches (and the
// operator's batch flag is on), its plain Next otherwise.
func batchNextFunc(in rowSource, batch bool) rowNextFunc {
	if batch {
		if b := batchInput(in); b != nil {
			cur := &batchCursor{src: b}
			return cur.next
		}
	}
	return in.Next
}

// batchCursor adapts NextBatch back to row-at-a-time pulls for
// pipeline breakers that consume batches but emit rows. It never
// recycles batches — the producer owns them.
type batchCursor struct {
	src   batchProducer
	cur   *Batch
	pos   int
	ticks int
}

func (c *batchCursor) next(ec *ExecCtx) ([]jsondom.Value, bool, error) {
	for {
		if c.cur != nil && c.pos < c.cur.Len() {
			row := c.cur.Row(c.pos)
			c.pos++
			return row, true, nil
		}
		// a pruning producer can return many empty pulls back to back;
		// stay cancellable across them
		if err := ec.tickErr(&c.ticks); err != nil {
			return nil, false, err
		}
		b, err := c.src.NextBatch(ec, 0)
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		c.cur, c.pos = b, 0
	}
}

// rowBatcher bridges a row-at-a-time source into the batch contract
// for operators whose parent batches but whose input does not.
type rowBatcher struct {
	in    rowSource
	out   *Batch
	ticks int
}

func (r *rowBatcher) NextBatch(ec *ExecCtx, max int) (*Batch, error) {
	putBatch(r.out)
	r.out = nil
	lim := batchSize
	if max > 0 && max < lim {
		lim = max
	}
	b := getBatch()
	for b.Len() < lim {
		if err := ec.tickErr(&r.ticks); err != nil {
			putBatch(b)
			return nil, err
		}
		row, ok, err := r.in.Next(ec)
		if err != nil {
			putBatch(b)
			return nil, err
		}
		if !ok {
			break
		}
		b.add(row)
	}
	if b.Len() == 0 {
		putBatch(b)
		return nil, nil
	}
	r.out = b
	mBatchAdaptedRows.Add(int64(b.Len()))
	return b, nil
}

// ---------------------------------------------------------------------------
// table scan: batch production and id-only iteration

// batchReady reports whether the scan emits batches this plan.
func (s *tableScan) batchReady() bool { return s.batchOut }

// NextBatch materializes up to min(batchSize, max) surviving rows into
// a pooled batch. In bitmap mode the selection position persists
// across calls, so a LIMIT budget stops materialization mid-chunk and
// the next call (if any) resumes exactly where it left off.
func (s *tableScan) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if s.st != nil {
		t0 := time.Now()
		defer func() { s.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(s.out)
	s.out = nil
	lim := batchSize
	if max > 0 && max < lim {
		lim = max
	}
	b = getBatch()
	for b.Len() < lim {
		row, ok, err := s.next1(ec)
		if err != nil {
			putBatch(b)
			return nil, err
		}
		if !ok {
			break
		}
		b.add(row)
	}
	if b.Len() == 0 {
		putBatch(b)
		return nil, nil
	}
	s.out = b
	mBatchBatches.Inc()
	mBatchRows.Add(int64(b.Len()))
	return b, nil
}

// detachBatch transfers ownership of the scan's current batch to the
// caller: the scan will not recycle it on its next NextBatch call.
// Parallel scan workers use this to hand batches across goroutines.
func (s *tableScan) detachBatch() { s.out = nil }

// idCapable reports whether the scan can run id-only iteration for the
// vector fast paths: full-range row-id order (no index postings, no
// sampling) and no row-level fallback predicate, so a row's survival
// is decided entirely before materialization. Valid only after Open.
func (s *tableScan) idCapable() bool {
	return s.rowIDs == nil && s.rng == nil && s.fallbackPred == nil
}

// nextSelID returns the next row id surviving the scan's vector
// predicates — the bitmap drain in batch-kernel mode, the filter
// closures otherwise — skipping deleted rows. Materialization is the
// caller's concern. Requires idCapable.
func (s *tableScan) nextSelID(ec *ExecCtx) (int, bool, error) {
	if s.batchActive {
		for {
			for s.selActive {
				i := s.sel.NextSet(s.selPos)
				if i < 0 {
					s.selActive = false
					break
				}
				s.selPos = i + 1
				rowID := s.chunkLo + i
				// bits below the partition floor (an unaligned lo) are not ours
				if rowID < s.lo || s.deleted(rowID) {
					continue
				}
				if !s.passVecFilters(rowID) {
					continue
				}
				return rowID, true, nil
			}
			ok, err := s.advanceChunk(ec)
			if err != nil || !ok {
				return 0, false, err
			}
		}
	}
	for {
		if err := ec.tickErr(&s.ticks); err != nil {
			return 0, false, err
		}
		if s.pos >= s.maxID {
			return 0, false, nil
		}
		rowID := s.pos
		s.pos++
		if s.deleted(rowID) || !s.passVecFilters(rowID) {
			continue
		}
		return rowID, true, nil
	}
}

// vectorFor resolves a column reference of the scan's schema to its
// populated IMC vector, the precondition for every code-space fast
// path. The scan's in-memory source must expose vectors (imc.Store
// does); a bare column name is required so the vector holds exactly
// the column the row path would materialize.
func (s *tableScan) vectorFor(c *ColRef) (*imc.Vector, bool) {
	type vecSource interface {
		Vector(name string) (*imc.Vector, bool)
	}
	vs, ok := s.sub.(vecSource)
	if !ok {
		return nil, false
	}
	i, err := s.sch.Resolve(c.Table, c.Name)
	if err != nil {
		return nil, false
	}
	return vs.Vector(s.cols[i].Name)
}

// ---------------------------------------------------------------------------
// filter / project / limit / alias: batch pass-through operators

func (f *filterOp) batchReady() bool { return f.batch && batchInput(f.in) != nil }

// NextBatch evaluates the predicate over whole input batches,
// compacting survivors into the filter's own pooled batch. The rows
// themselves pass through untouched.
func (f *filterOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if f.st != nil {
		t0 := time.Now()
		defer func() { f.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(f.out)
	f.out = nil
	out := getBatch()
	for out.Len() == 0 {
		if err := ec.tickErr(&f.ticks); err != nil {
			putBatch(out)
			return nil, err
		}
		in, err := f.bin.NextBatch(ec, 0)
		if err != nil {
			putBatch(out)
			return nil, err
		}
		if in == nil {
			break
		}
		for i := 0; i < in.Len(); i++ {
			row := in.Row(i)
			f.ctx.row = row
			v, err := evalExpr(f.ctx, f.pred)
			if err != nil {
				putBatch(out)
				return nil, err
			}
			if truthy(v) {
				out.add(row)
			}
		}
	}
	if out.Len() == 0 {
		putBatch(out)
		return nil, nil
	}
	if max > 0 {
		out.truncate(max)
	}
	f.out = out
	return out, nil
}

func (p *projectOp) batchReady() bool { return p.batch && batchInput(p.in) != nil }

// NextBatch projects one input batch into arena-carved output rows —
// the projection is 1:1, so the consumer's row budget passes straight
// through to the input.
func (p *projectOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if p.st != nil {
		t0 := time.Now()
		defer func() { p.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(p.out)
	p.out = nil
	in, err := p.bin.NextBatch(ec, max)
	if err != nil || in == nil {
		return nil, err
	}
	out := getBatch()
	for i := 0; i < in.Len(); i++ {
		p.ctx.row = in.Row(i)
		dst := p.arena.alloc(len(p.exprs))
		for j, e := range p.exprs {
			v, err := evalExpr(p.ctx, e)
			if err != nil {
				putBatch(out)
				return nil, err
			}
			dst[j] = v
		}
		out.add(dst)
	}
	p.out = out
	return out, nil
}

func (l *limitOp) batchReady() bool { return l.batch && batchInput(l.in) != nil }

// NextBatch threads the remaining-row budget into the input's batch
// materialization: a batch scan below stops materializing mid-chunk
// instead of building the whole final chunk and discarding the tail.
func (l *limitOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if l.st != nil {
		t0 := time.Now()
		defer func() { l.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	rem := l.limit - l.n
	if rem <= 0 {
		if !l.inClosed {
			l.inClosed = true
			if err := l.in.Close(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	if max <= 0 || rem < max {
		max = rem
	}
	in, err := l.bin.NextBatch(ec, max)
	if err != nil || in == nil {
		return nil, err
	}
	in.truncate(rem)
	l.n += in.Len()
	return in, nil
}

func (w *aliasWrap) batchReady() bool { return batchInput(w.in) != nil }

// NextBatch passes the input's batches through unchanged; only the
// schema differs.
func (w *aliasWrap) NextBatch(ec *ExecCtx, max int) (*Batch, error) {
	return w.bin.NextBatch(ec, max)
}

// batchReady reports whether JSON_TABLE emits pooled batches this
// plan. Expansion output batches regardless of whether the left input
// does — the op re-rows its input anyway.
func (j *jsonTableOp) batchReady() bool { return j.batch }

// NextBatch expands documents directly into a pooled batch, cutting
// the per-row interface dispatch and pending-queue staging between
// JSON_TABLE and the aggregation above it — the Fig3 spine. Each
// document's rows are emitted whole, so a batch may overshoot max (the
// size hint contract allows it). The rows are arena-carved (batchEmit
// merges left+expansion through j.arena), so consumers may retain
// them; only the header is recycled on the next call.
func (j *jsonTableOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if j.st != nil {
		t0 := time.Now()
		defer func() { j.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(j.out)
	j.out = nil
	lim := batchSize
	if max > 0 && max < lim {
		lim = max
	}
	out := getBatch()
	j.bsink = out
	defer func() { j.bsink = nil }()
	// drain rows a row-mode pull already staged before emitting fresh
	// documents straight into the batch
	for j.pi < len(j.pending) {
		out.add(j.pending[j.pi])
		j.pi++
	}
	for out.Len() < lim && !j.done {
		if err := ec.tickErr(&j.ticks); err != nil {
			putBatch(out)
			return nil, err
		}
		if j.left == nil {
			j.done = true
			if err := j.expandDoc(ec, nil, j.emitBatch); err != nil {
				putBatch(out)
				return nil, err
			}
			continue
		}
		row, ok, err := j.left.Next(ec)
		if err != nil {
			putBatch(out)
			return nil, err
		}
		if !ok {
			j.done = true
			continue
		}
		if err := j.expandDoc(ec, row, j.emitBatch); err != nil {
			putBatch(out)
			return nil, err
		}
	}
	if out.Len() == 0 {
		putBatch(out)
		return nil, nil
	}
	j.out = out
	return out, nil
}

// batchEmit merges one expansion row and appends it to the batch on
// loan from NextBatch (the pre-bound emit target of batch mode).
func (j *jsonTableOp) batchEmit(scratch []jsondom.Value) error {
	j.bsink.add(j.mergeRow(scratch))
	return nil
}

// ---------------------------------------------------------------------------
// grouped aggregation: the dictionary-code fast path

// aggFastKind classifies the aggregates the vector fast path computes
// without materializing rows.
type aggFastKind int

const (
	aggFastCountStar aggFastKind = iota
	aggFastCount
	aggFastSum
	aggFastAvg
	aggFastMin
	aggFastMax
)

// aggFastSpec is the execution-time plan of one fast-path aggregate:
// its kind and, for argument-taking aggregates, the vector the
// argument column is backed by. Built once per execution by
// newAggFastSpecs; read-only afterwards (shared with nothing, but the
// immutability keeps the accumulation loop free of aliasing hazards).
type aggFastSpec struct {
	kind aggFastKind
	vec  *imc.Vector
}

// newAggFastSpecs classifies the operator's aggregates for the vector
// fast path, resolving argument columns to scan vectors; ok=false
// declines (unsupported aggregate, non-column argument, argument not
// vector-backed, sum/avg over a string vector).
func newAggFastSpecs(g *groupAggOp, scan *tableScan) ([]aggFastSpec, bool) {
	specs := make([]aggFastSpec, len(g.aggs))
	for i, a := range g.aggs {
		if a.Star && a.Name == "count" {
			specs[i] = aggFastSpec{kind: aggFastCountStar}
			continue
		}
		if len(a.Args) != 1 {
			return nil, false
		}
		col, ok := a.Args[0].(*ColRef)
		if !ok {
			return nil, false
		}
		vec, ok := scan.vectorFor(col)
		if !ok {
			return nil, false
		}
		var kind aggFastKind
		switch a.Name {
		case "count":
			kind = aggFastCount
		case "sum":
			kind = aggFastSum
		case "avg":
			kind = aggFastAvg
		case "min":
			kind = aggFastMin
		case "max":
			kind = aggFastMax
		default:
			return nil, false
		}
		// sum/avg over a string vector would need the row path's
		// numeric-coercion semantics; decline
		if (kind == aggFastSum || kind == aggFastAvg) && !vec.IsNumber {
			return nil, false
		}
		specs[i] = aggFastSpec{kind: kind, vec: vec}
	}
	return specs, true
}

// fastAggState is the per-group accumulator for one fast-path
// aggregate: one count, one float sum, and one min/max slot in the
// vector's native representation (float64, or uint32 dictionary code —
// the dictionary is sorted, so code order is string order).
type fastAggState struct {
	count int64
	sum   float64
	num   float64
	code  uint32
	valid bool
}

// fastGroup is one group of the code-space aggregation: the id of its
// first row (materialized only at emit) and the accumulator per
// aggregate.
type fastGroup struct {
	reprID int
	states []fastAggState
}

// buildFast runs grouped aggregation in code space when the operator
// sits directly on an id-capable scan and both the single group key
// and every aggregate argument are vector-backed: the key hashes as a
// uint64 (dictionary code or float bits), aggregates accumulate from
// the vectors, and only one representative row per group is ever
// materialized. Returns ok=false (leaving no state behind) when the
// plan shape does not qualify, in which case the caller falls back to
// the generic build.
func (g *groupAggOp) buildFast(ec *ExecCtx) (ok bool, err error) {
	scan, isScan := g.in.(*tableScan)
	if !isScan || !scan.idCapable() || g.implicitGroup || len(g.groupBy) != 1 {
		return false, nil
	}
	keyCol, isCol := g.groupBy[0].(*ColRef)
	if !isCol {
		return false, nil
	}
	keyVec, haveVec := scan.vectorFor(keyCol)
	if !haveVec {
		return false, nil
	}
	specs, okSpecs := newAggFastSpecs(g, scan)
	if !okSpecs {
		return false, nil
	}

	newGroup := func(id int) *fastGroup {
		return &fastGroup{reprID: id, states: make([]fastAggState, len(specs))}
	}
	index := make(map[uint64]*fastGroup)
	var order []*fastGroup
	var nullGroup *fastGroup
	var rows int64
	ticks := 0
	for {
		if err := ec.tickErr(&ticks); err != nil {
			return true, err
		}
		id, more, err := scan.nextSelID(ec)
		if err != nil {
			return true, err
		}
		if !more {
			break
		}
		rows++
		var key uint64
		var keyNull bool
		if keyVec.IsNumber {
			n, okv := keyVec.NumAt(id)
			key, keyNull = math.Float64bits(n), !okv
		} else {
			c, okv := keyVec.CodeAt(id)
			key, keyNull = uint64(c), !okv
		}
		var grp *fastGroup
		if keyNull {
			if nullGroup == nil {
				nullGroup = newGroup(id)
				order = append(order, nullGroup)
			}
			grp = nullGroup
		} else {
			grp = index[key]
			if grp == nil {
				grp = newGroup(id)
				index[key] = grp
				order = append(order, grp)
			}
		}
		for i := range specs {
			sp := &specs[i]
			st := &grp.states[i]
			if sp.kind == aggFastCountStar {
				st.count++
				continue
			}
			if sp.vec.IsNumber {
				n, okv := sp.vec.NumAt(id)
				if !okv {
					continue
				}
				switch sp.kind {
				case aggFastCount:
					st.count++
				case aggFastSum, aggFastAvg:
					st.count++
					st.sum += n
					st.valid = true
				case aggFastMin:
					if !st.valid || n < st.num {
						st.num = n
					}
					st.valid = true
				case aggFastMax:
					if !st.valid || n > st.num {
						st.num = n
					}
					st.valid = true
				}
				continue
			}
			c, okv := sp.vec.CodeAt(id)
			if !okv {
				continue
			}
			switch sp.kind {
			case aggFastCount:
				st.count++
			case aggFastMin:
				if !st.valid || c < st.code {
					st.code = c
				}
				st.valid = true
			case aggFastMax:
				if !st.valid || c > st.code {
					st.code = c
				}
				st.valid = true
			}
		}
	}

	// emit in first-seen order, materializing one row per group
	for _, grp := range order {
		repr, _, err := scan.materialize(grp.reprID, scan.rows[grp.reprID])
		if err != nil {
			return true, err
		}
		n := rowBytes(repr) + 8
		if err := ec.grow(n); err != nil {
			return true, err
		}
		g.memUsed += n
		out := make([]jsondom.Value, 0, len(repr)+len(specs))
		out = append(out, repr...)
		for i := range specs {
			out = append(out, specs[i].result(&grp.states[i]))
		}
		g.groups = append(g.groups, out)
		scan.rowsOut++
	}
	mode := "float-bits"
	if !keyVec.IsNumber {
		mode = "dict-codes"
	}
	g.fastStat = fmt.Sprintf("agg-fast: key=%s rows=%d groups=%d", mode, rows, len(order))
	mAggFastRows.Add(rows)
	return true, nil
}

// result finalizes one accumulator with the row path's semantics:
// NULL for empty sum/avg/min/max, numeric normalization via
// NumberFromFloat so 1 and 1.0 render identically.
func (sp *aggFastSpec) result(st *fastAggState) jsondom.Value {
	switch sp.kind {
	case aggFastCountStar, aggFastCount:
		return jsondom.NumberFromInt(st.count)
	case aggFastSum:
		if !st.valid {
			return null
		}
		return jsondom.NumberFromFloat(st.sum)
	case aggFastAvg:
		if st.count == 0 {
			return null
		}
		return jsondom.NumberFromFloat(st.sum / float64(st.count))
	default: // min/max
		if !st.valid {
			return null
		}
		if sp.vec.IsNumber {
			return jsondom.NumberFromFloat(st.num)
		}
		return jsondom.String(sp.vec.DictStr(st.code))
	}
}

// ---------------------------------------------------------------------------
// hash join: code-space build and probe

// joinFast is the execution state of a code-space hash join: both
// sides are id-capable scans whose single key columns are
// vector-backed with directly comparable representations (two numeric
// vectors, or two string vectors sharing one dictionary). The build
// side stores materialized rows under uint64 keys; the probe side
// materializes a left row only when it matches (or, under left-outer
// semantics, misses).
type joinFast struct {
	h                 *hashJoin
	lscan, rscan      *tableScan
	lvec, rvec        *imc.Vector
	table             map[uint64][][]jsondom.Value
	pending           [][]jsondom.Value
	pi                int
	leftRow           []jsondom.Value
	probed, probeHits int64
	ticks             int
}

// newJoinFast qualifies the join for code-space probing after both
// inputs are open; nil means the plan shape does not qualify and the
// generic path runs.
func newJoinFast(h *hashJoin) *joinFast {
	lscan, okL := h.left.(*tableScan)
	rscan, okR := h.right.(*tableScan)
	if !okL || !okR || !lscan.idCapable() || !rscan.idCapable() {
		return nil
	}
	if len(h.leftKeys) != 1 || len(h.rightKeys) != 1 {
		return nil
	}
	lcol, okL := h.leftKeys[0].(*ColRef)
	rcol, okR := h.rightKeys[0].(*ColRef)
	if !okL || !okR {
		return nil
	}
	lvec, okL := lscan.vectorFor(lcol)
	rvec, okR := rscan.vectorFor(rcol)
	if !okL || !okR {
		return nil
	}
	// the two representations must agree for uint64 keys to be
	// comparable across sides
	if lvec.IsNumber != rvec.IsNumber {
		return nil
	}
	if !lvec.IsNumber && !lvec.SameDict(rvec) {
		return nil
	}
	return &joinFast{h: h, lscan: lscan, rscan: rscan, lvec: lvec, rvec: rvec}
}

// keyAt reads the join key for one row id in code space.
func keyAt(vec *imc.Vector, id int) (key uint64, ok bool) {
	if vec.IsNumber {
		n, okv := vec.NumAt(id)
		return math.Float64bits(n), okv
	}
	c, okv := vec.CodeAt(id)
	return uint64(c), okv
}

// build materializes the right input into the code-keyed hash table.
// NULL keys never participate, matching the row path.
func (jf *joinFast) build(ec *ExecCtx) error {
	jf.table = make(map[uint64][][]jsondom.Value)
	for {
		if err := ec.tickErr(&jf.ticks); err != nil {
			return err
		}
		id, more, err := jf.rscan.nextSelID(ec)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		key, okKey := keyAt(jf.rvec, id)
		if !okKey {
			continue
		}
		row, _, err := jf.rscan.materialize(id, jf.rscan.rows[id])
		if err != nil {
			return err
		}
		jf.rscan.rowsOut++
		n := rowBytes(row) + 8
		if err := ec.grow(n); err != nil {
			return err
		}
		jf.h.memUsed += n
		jf.table[key] = append(jf.table[key], row)
	}
	mDictProbeBuilds.Inc()
	return nil
}

// next produces the join output rows: probe keys are read straight
// from the left vector, and a left row is materialized only once a
// match (or outer-join miss) makes it observable.
func (jf *joinFast) next(ec *ExecCtx) ([]jsondom.Value, bool, error) {
	h := jf.h
	for {
		// inner-join probes can skip arbitrarily many key misses
		// between emitted rows; stay cancellable across them
		if err := ec.tickErr(&jf.ticks); err != nil {
			return nil, false, err
		}
		if jf.pi < len(jf.pending) {
			r := jf.pending[jf.pi]
			jf.pi++
			out := h.arena.alloc(len(jf.leftRow) + len(r))
			copy(out, jf.leftRow)
			copy(out[len(jf.leftRow):], r)
			if h.residual != nil {
				h.residCtx.row = out
				v, err := evalExpr(h.residCtx, h.residual)
				if err != nil {
					return nil, false, err
				}
				if !truthy(v) {
					continue
				}
			}
			return out, true, nil
		}
		id, more, err := jf.lscan.nextSelID(ec)
		if err != nil {
			return nil, false, err
		}
		if !more {
			mDictProbeRows.Add(jf.probed)
			jf.probed = 0
			return nil, false, nil
		}
		jf.probed++
		key, okKey := keyAt(jf.lvec, id)
		var matches [][]jsondom.Value
		if okKey {
			matches = jf.table[key]
		}
		if len(matches) == 0 {
			if !h.leftOuter {
				continue
			}
			row, _, err := jf.lscan.materialize(id, jf.lscan.rows[id])
			if err != nil {
				return nil, false, err
			}
			jf.lscan.rowsOut++
			out := h.arena.alloc(len(row) + len(h.right.Schema()))
			copy(out, row)
			for i := len(row); i < len(out); i++ {
				out[i] = null
			}
			return out, true, nil
		}
		jf.probeHits++
		row, _, err := jf.lscan.materialize(id, jf.lscan.rows[id])
		if err != nil {
			return nil, false, err
		}
		jf.lscan.rowsOut++
		jf.leftRow = row
		jf.pending, jf.pi = matches, 0
	}
}

// stat renders the fast join's EXPLAIN ANALYZE line.
func (jf *joinFast) stat() string {
	mode := "float-bits"
	if !jf.lvec.IsNumber {
		mode = "dict-codes"
	}
	return fmt.Sprintf("dictprobe: key=%s build-keys=%d probe-hits=%d", mode, len(jf.table), jf.probeHits)
}
