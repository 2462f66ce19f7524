// Morsel-driven parallelism above the scan. PR1's parallelScanOp
// fans the leaf out across partition workers but funnels every row
// through a single-goroutine aggregation/join/sort; the operators in
// this file push the work itself into the workers:
//
//   - parallel grouped aggregation: each worker runs a private
//     partial-aggregate table (the code-space buildFast layout when
//     the plan qualifies, the generic rendered-key layout otherwise)
//     over its partition, and a single-pass merge in partition order
//     combines the partials — first-seen group order and the all-NULL
//     group come out exactly as the serial build produces them.
//
//   - parallel hash-join probe: the build side is constructed once
//     into a read-only shared table (dict-code/float-bits fast table
//     or the generic rendered-key table), then probe partitions are
//     joined in place by workers that emit fully-joined batches over
//     per-worker channels, merged in partition order.
//
//   - parallel sort: workers materialize, key, and sort per-partition
//     runs; Next streams a k-way merge of the runs with ties broken
//     by partition index, which reproduces the serial stable sort
//     exactly while keeping LIMIT budgets (stop pulling) and early
//     Close (stop + join workers) intact.
//
// Workers share no mutable state: each owns its scan clone, pipeline
// clone, evalCtx, arena, and tick counter. Shared plan state (Exprs,
// pathengine.Compiled, IMC vectors, the build table after its single
// construction) is immutable during evaluation — the same contract
// parallelScanOp relies on. Memory is charged per worker through the
// shared atomic budget (ExecCtx.grow), and released once by the
// operator's Close.
package sqlengine

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/jsondom"
)

// defaultParallelExecMinRows is the estimated input size below which
// parallel aggregation/probe/sort is not worth the fan-out overhead;
// deliberately higher than defaultParallelMinRows because the upper
// operators amortize less per row than the scan does.
const defaultParallelExecMinRows = 2048

// ---------------------------------------------------------------------------
// pipeline discovery

// parPipe describes how to rebuild an operator's input as K
// independent per-partition pipelines: a partitionable base scan, the
// residual filter a parallelScanOp had absorbed (nil otherwise), and
// the chain of per-row operators between the operator and the base
// (outermost first). Each worker gets a fresh clone of the chain over
// a cloneForRange slice of the base, so no execution state is shared.
type parPipe struct {
	base   *tableScan
	filter Expr
	chain  []rowSource
	degree int
}

// findParPipe walks down from an operator's input looking for a
// partitionable pipeline. Only operators whose execution is a pure
// per-row function of their input may sit on the path (filters, alias
// wraps, JSON_TABLE expansion); pipeline breakers, index-driven scans,
// and sampling scans decline. A parallelScanOp base is absorbed — its
// template and residual filter replace it, so the scan fan-out and the
// operator fan-out collapse into one set of workers. nil means the
// operator must stay serial.
func findParPipe(src rowSource, degree int) *parPipe {
	if degree < 2 {
		return nil
	}
	pp := &parPipe{degree: degree}
	for {
		switch t := src.(type) {
		case *tableScan:
			if t.rowIDsFn != nil || t.samplePct > 0 {
				return nil
			}
			pp.base = t
			return pp
		case *parallelScanOp:
			// ordered merge only: the unordered merge already gave up
			// deterministic row order, but partial-agg merge and sort
			// tie-breaks are defined in partition order
			if t.unordered {
				return nil
			}
			if t.template.rowIDsFn != nil || t.template.samplePct > 0 {
				return nil
			}
			pp.base = t.template
			pp.filter = t.filter
			return pp
		case *filterOp:
			pp.chain = append(pp.chain, t)
			src = t.in
		case *aliasWrap:
			pp.chain = append(pp.chain, t)
			src = t.in
		case *jsonTableOp:
			if t.left == nil {
				return nil
			}
			pp.chain = append(pp.chain, t)
			src = t.left
		default:
			return nil
		}
	}
}

// partitions returns the chunk-aligned worker ranges for the base
// scan, or nil when the split degenerates to fewer than two workers.
func (pp *parPipe) partitions() [][2]int {
	parts := scanPartitions(pp.base, pp.degree)
	if len(parts) < 2 {
		return nil
	}
	return parts
}

// workerSource rebuilds the pipeline over one partition of the base:
// a range clone of the scan, the absorbed parallel-scan residual as a
// worker-local filter, then fresh clones of the chain operators from
// the inside out. Clones share only immutable plan state (predicates,
// schemas, compiled paths); all execution state is per worker.
func (pp *parPipe) workerSource(lo, hi int, env *planEnv) rowSource {
	src := rowSource(pp.base.cloneForRange(lo, hi))
	if pp.filter != nil {
		src = &filterOp{in: src, pred: pp.filter, env: env, batch: pp.base.batchOut}
	}
	for i := len(pp.chain) - 1; i >= 0; i-- {
		switch t := pp.chain[i].(type) {
		case *filterOp:
			src = &filterOp{in: src, pred: t.pred, env: env, batch: t.batch}
		case *aliasWrap:
			src = &aliasWrap{in: src, alias: t.alias, sch: t.sch}
		case *jsonTableOp:
			src = &jsonTableOp{left: src, ref: t.ref, sch: t.sch, env: env,
				preFilters: t.preFilters, preSpecs: t.preSpecs, batch: t.batch}
		}
	}
	return src
}

// ---------------------------------------------------------------------------
// worker-fleet plumbing

// parFleet is the shared coordination state of one parallel-operator
// worker fleet: a WaitGroup joined by Close and an abort channel that
// stops every worker early on the first error, an early Close (LIMIT),
// or cancellation.
type parFleet struct {
	wg       sync.WaitGroup
	abort    chan struct{}
	stopOnce sync.Once
}

func newParFleet() *parFleet { return &parFleet{abort: make(chan struct{})} }

// stop makes every worker's next aborted() check true and unblocks
// workers parked on a full channel send.
func (f *parFleet) stop() { f.stopOnce.Do(func() { close(f.abort) }) }

// aborted is the per-iteration worker check; cheap enough for row
// loops (one channel poll, same cost parallelScanOp workers pay).
func (f *parFleet) aborted() bool {
	select {
	case <-f.abort:
		return true
	default:
		return false
	}
}

// send delivers r unless the fleet is stopping; a worker blocked on a
// full channel unblocks through the abort case.
func (f *parFleet) send(ch chan parRow, r parRow) bool {
	select {
	case ch <- r:
		return true
	case <-f.abort:
		return false
	}
}

// close stops the fleet and joins the workers. Safe to call multiple
// times; after it returns no worker goroutine is left running.
func (f *parFleet) close() {
	f.stop()
	f.wg.Wait()
}

// ---------------------------------------------------------------------------
// parallel grouped aggregation

// parAggPartial is one worker's generic partial-aggregation result:
// its private group table in first-seen order plus the rows consumed
// and memory charged, read by the merge only after the worker is done.
type parAggPartial struct {
	index map[string]*groupState
	order []string
	rows  int64
	mem   int64
	err   error
}

// parFastPartial is one worker's code-space partial result: groups in
// first-seen order with their uint64 keys, null-group flag, and the
// representative rows materialized inside the worker (while its scan
// clone was open).
type parFastPartial struct {
	order  []*fastGroup
	keys   []uint64
	isNull []bool
	reprs  [][]jsondom.Value
	rows   int64
	mem    int64
	err    error
}

// buildParallel runs the grouped aggregation across partition workers;
// ok=false leaves no state behind and the caller falls back to the
// serial build. The merge consumes partials in partition order, which
// makes the combined first-seen group order identical to the serial
// scan's: a group's first row in partition order is its first row in
// row order, because partitions are contiguous ascending row ranges.
func (g *groupAggOp) buildParallel(ec *ExecCtx) (bool, error) {
	pp := findParPipe(g.in, g.parDegree)
	if pp == nil {
		return false, nil
	}
	parts := pp.partitions()
	if parts == nil {
		return false, nil
	}
	if ok, err := g.buildParFast(ec, pp, parts); ok || err != nil {
		return ok, err
	}
	return g.buildParGeneric(ec, pp, parts)
}

// parFastQualifies re-runs the buildFast qualification against a
// zero-row clone of the base scan: the vectors and aggregate specs it
// resolves are chunk-independent, so one probe answers for every
// partition. The clone is opened (idCapable needs the Open-time
// snapshot) and closed before any worker starts.
func (g *groupAggOp) parFastQualifies(ec *ExecCtx, pp *parPipe) (keyCol *ColRef, specs []aggFastSpec, ok bool, err error) {
	if len(pp.chain) != 0 || pp.filter != nil || !g.batch || g.implicitGroup || len(g.groupBy) != 1 {
		return nil, nil, false, nil
	}
	keyCol, isCol := g.groupBy[0].(*ColRef)
	if !isCol {
		return nil, nil, false, nil
	}
	probe := pp.base.cloneForRange(0, 0)
	if err := probe.Open(ec); err != nil {
		return nil, nil, false, err
	}
	defer probe.Close() //nolint:errcheck // zero-row probe clone
	if !probe.idCapable() {
		return nil, nil, false, nil
	}
	if _, haveVec := probe.vectorFor(keyCol); !haveVec {
		return nil, nil, false, nil
	}
	specs, okSpecs := newAggFastSpecs(g, probe)
	if !okSpecs {
		return nil, nil, false, nil
	}
	return keyCol, specs, true, nil
}

// buildParFast is the parallel code-space aggregation: each worker
// accumulates a private fastGroup table over its partition and
// materializes its representative rows before closing its scan; the
// merge walks partials in partition order, adopting unseen groups and
// folding seen ones with mergeFastState.
func (g *groupAggOp) buildParFast(ec *ExecCtx, pp *parPipe, parts [][2]int) (bool, error) {
	keyCol, specs, ok, err := g.parFastQualifies(ec, pp)
	if !ok || err != nil {
		return false, err
	}
	fleet := newParFleet()
	partials := make([]parFastPartial, len(parts))
	fleet.wg.Add(len(parts))
	for i, part := range parts {
		scan := pp.base.cloneForRange(part[0], part[1])
		go g.parFastWorker(ec, fleet, scan, keyCol, specs, &partials[i])
	}
	fleet.wg.Wait()

	type mergedGroup struct {
		fg   *fastGroup
		repr []jsondom.Value
	}
	var rows, partialGroups int64
	index := make(map[uint64]*mergedGroup)
	var order []*mergedGroup
	var nullGroup *mergedGroup
	// every partial is charged and checked before any is merged: a
	// worker that saw the fleet abort returns a truncated partial with
	// a nil error (nil reprs), explained only by another worker's error
	var firstErr error
	for pi := range partials {
		g.memUsed += partials[pi].mem // charged by the worker; released at Close
		firstErr = cmp.Or(firstErr, partials[pi].err)
	}
	if firstErr != nil {
		return true, firstErr
	}
	for pi := range partials {
		p := &partials[pi]
		rows += p.rows
		partialGroups += int64(len(p.order))
		for i, fg := range p.order {
			var dst *mergedGroup
			if p.isNull[i] {
				if nullGroup == nil {
					nullGroup = &mergedGroup{fg: fg, repr: p.reprs[i]}
					order = append(order, nullGroup)
					continue
				}
				dst = nullGroup
			} else {
				dst = index[p.keys[i]]
				if dst == nil {
					m := &mergedGroup{fg: fg, repr: p.reprs[i]}
					index[p.keys[i]] = m
					order = append(order, m)
					continue
				}
			}
			for si := range specs {
				mergeFastState(&dst.fg.states[si], &fg.states[si], &specs[si])
			}
		}
	}
	for _, m := range order {
		out := make([]jsondom.Value, 0, len(m.repr)+len(specs))
		out = append(out, m.repr...)
		for i := range specs {
			out = append(out, specs[i].result(&m.fg.states[i]))
		}
		g.groups = append(g.groups, out)
	}
	mode := "float-bits"
	if kv, okv := pp.base.vectorFor(keyCol); okv && !kv.IsNumber {
		mode = "dict-codes"
	}
	g.parStat = fmt.Sprintf("par-agg: mode=%s workers=%d rows=%d partial-groups=%d merged-groups=%d",
		mode, len(parts), rows, partialGroups, len(order))
	mAggFastRows.Add(rows)
	mParExecOps.Inc()
	mParExecWorkers.Add(int64(len(parts)))
	mParExecPartialGroups.Add(partialGroups)
	mParExecMergedGroups.Add(int64(len(order)))
	return true, nil
}

// parFastWorker accumulates one partition's code-space partial. It
// mirrors buildFast's accumulation loop exactly (same key extraction,
// same per-aggregate switches) over a range clone of the scan, then
// materializes one representative row per group while the clone is
// still open.
func (g *groupAggOp) parFastWorker(ec *ExecCtx, fleet *parFleet, scan *tableScan, keyCol *ColRef, specs []aggFastSpec, out *parFastPartial) {
	defer fleet.wg.Done()
	fail := func(err error) {
		out.err = err
		fleet.stop()
	}
	if err := scan.Open(ec); err != nil {
		fail(err)
		return
	}
	defer scan.Close() //nolint:errcheck // flushes the clone's row count
	keyVec, haveVec := scan.vectorFor(keyCol)
	if !haveVec {
		fail(fmt.Errorf("parallel agg: key vector vanished at execution"))
		return
	}
	index := make(map[uint64]*fastGroup)
	nullIdx := -1
	ticks := 0
	for {
		if fleet.aborted() {
			return
		}
		if err := ec.tickErr(&ticks); err != nil {
			fail(err)
			return
		}
		id, more, err := scan.nextSelID(ec)
		if err != nil {
			fail(err)
			return
		}
		if !more {
			break
		}
		out.rows++
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
			if nullIdx < 0 {
				grp = &fastGroup{reprID: id, states: make([]fastAggState, len(specs))}
				nullIdx = len(out.order)
				out.order = append(out.order, grp)
				out.keys = append(out.keys, 0)
				out.isNull = append(out.isNull, true)
			} else {
				grp = out.order[nullIdx]
			}
		} else {
			grp = index[key]
			if grp == nil {
				grp = &fastGroup{reprID: id, states: make([]fastAggState, len(specs))}
				index[key] = grp
				out.order = append(out.order, grp)
				out.keys = append(out.keys, key)
				out.isNull = append(out.isNull, false)
			}
		}
		accumFastRow(grp, specs, id)
	}
	// materialize the representative rows while the clone is open
	out.reprs = make([][]jsondom.Value, len(out.order))
	for i, fg := range out.order {
		repr, _, err := scan.materialize(fg.reprID, scan.rows[fg.reprID])
		if err != nil {
			fail(err)
			return
		}
		scan.rowsOut++
		n := rowBytes(repr) + 8
		if err := ec.grow(n); err != nil {
			fail(err)
			return
		}
		out.mem += n
		out.reprs[i] = repr
	}
}

// accumFastRow folds row id into one group's accumulators — the same
// per-kind arithmetic as buildFast's inner loop.
func accumFastRow(grp *fastGroup, specs []aggFastSpec, id int) {
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

// mergeFastState folds src into dst for one aggregate — the partial
// tables are disjoint row sets, so counts and sums add, and min/max
// combine in the vector's native representation.
func mergeFastState(dst, src *fastAggState, sp *aggFastSpec) {
	switch sp.kind {
	case aggFastCountStar, aggFastCount:
		dst.count += src.count
	case aggFastSum, aggFastAvg:
		dst.count += src.count
		dst.sum += src.sum
		dst.valid = dst.valid || src.valid
	case aggFastMin:
		if !src.valid {
			return
		}
		if sp.vec.IsNumber {
			if !dst.valid || src.num < dst.num {
				dst.num = src.num
			}
		} else if !dst.valid || src.code < dst.code {
			dst.code = src.code
		}
		dst.valid = true
	case aggFastMax:
		if !src.valid {
			return
		}
		if sp.vec.IsNumber {
			if !dst.valid || src.num > dst.num {
				dst.num = src.num
			}
		} else if !dst.valid || src.code > dst.code {
			dst.code = src.code
		}
		dst.valid = true
	}
}

// buildParGeneric is the parallel generic aggregation: each worker
// runs the rendered-key build loop over its pipeline clone, and the
// merge folds partials in partition order through the aggregate
// states' merge methods. Declines when any aggregate state is not
// mergeable (json_dataguideagg's DataGuide flat form is
// insertion-order sensitive).
func (g *groupAggOp) buildParGeneric(ec *ExecCtx, pp *parPipe, parts [][2]int) (bool, error) {
	for _, st := range g.newStates() {
		if _, ok := st.(mergeableAggState); !ok {
			return false, nil
		}
	}
	fleet := newParFleet()
	partials := make([]parAggPartial, len(parts))
	fleet.wg.Add(len(parts))
	for i, part := range parts {
		pipe := pp.workerSource(part[0], part[1], g.env)
		go g.parGenericWorker(ec, fleet, pipe, &partials[i])
	}
	fleet.wg.Wait()

	var rows, partialGroups int64
	index := make(map[string]*groupState)
	var order []string
	// charge and check every partial before merging any (see buildParFast)
	var err error
	for pi := range partials {
		g.memUsed += partials[pi].mem
		err = cmp.Or(err, partials[pi].err)
	}
	if err != nil {
		return true, err
	}
	for pi := range partials {
		p := &partials[pi]
		rows += p.rows
		partialGroups += int64(len(p.order))
		for _, k := range p.order {
			gs := p.index[k]
			ex, seen := index[k]
			if !seen {
				index[k] = gs
				order = append(order, k)
				continue
			}
			for i := range ex.states {
				ex.states[i].(mergeableAggState).merge(gs.states[i])
			}
		}
	}
	if len(order) == 0 && g.implicitGroup {
		inSch := g.in.Schema()
		gs := &groupState{repr: make([]jsondom.Value, len(inSch)), states: g.newStates()}
		for i := range gs.repr {
			gs.repr[i] = null
		}
		index[""] = gs
		order = append(order, "")
	}
	for _, k := range order {
		gs := index[k]
		out := make([]jsondom.Value, 0, len(gs.repr)+len(g.aggs))
		out = append(out, gs.repr...)
		for _, st := range gs.states {
			out = append(out, st.result())
		}
		g.groups = append(g.groups, out)
	}
	g.parStat = fmt.Sprintf("par-agg: mode=generic workers=%d rows=%d partial-groups=%d merged-groups=%d",
		len(parts), rows, partialGroups, len(order))
	mParExecOps.Inc()
	mParExecWorkers.Add(int64(len(parts)))
	mParExecPartialGroups.Add(partialGroups)
	mParExecMergedGroups.Add(int64(len(order)))
	return true, nil
}

// parGenericWorker runs the serial generic build loop over one
// pipeline clone, into a private table.
func (g *groupAggOp) parGenericWorker(ec *ExecCtx, fleet *parFleet, pipe rowSource, out *parAggPartial) {
	defer fleet.wg.Done()
	fail := func(err error) {
		out.err = err
		fleet.stop()
	}
	if err := pipe.Open(ec); err != nil {
		fail(err)
		return
	}
	defer pipe.Close() //nolint:errcheck // worker-owned clone
	next := batchNextFunc(pipe, g.batch)
	out.index = make(map[string]*groupState)
	bindExprs := append([]Expr{}, g.groupBy...)
	for _, a := range g.aggs {
		bindExprs = append(bindExprs, a.Args...)
	}
	ctx := g.env.bindCtx(pipe.Schema(), bindExprs...)
	ticks := 0
	var keyBuf []byte // worker-local rendered-key scratch
	for {
		if fleet.aborted() {
			return
		}
		if err := ec.tickErr(&ticks); err != nil {
			fail(err)
			return
		}
		row, ok, err := next(ec)
		if err != nil {
			fail(err)
			return
		}
		if !ok {
			return
		}
		out.rows++
		ctx.row = row
		keyBuf = keyBuf[:0]
		for _, e := range g.groupBy {
			v, err := evalExpr(ctx, e)
			if err != nil {
				fail(err)
				return
			}
			keyBuf = keyRenderAppend(keyBuf, v)
		}
		gs, seen := out.index[string(keyBuf)] // alloc-free lookup
		if !seen {
			key := string(keyBuf)
			gs = &groupState{repr: row, states: g.newStates()}
			out.index[key] = gs
			out.order = append(out.order, key)
			n := rowBytes(row) + int64(len(key))
			if err := ec.grow(n); err != nil {
				fail(err)
				return
			}
			out.mem += n
		}
		for i, agg := range g.aggs {
			var arg jsondom.Value = null
			if len(agg.Args) > 0 {
				v, err := evalExpr(ctx, agg.Args[0])
				if err != nil {
					fail(err)
					return
				}
				arg = v
			}
			gs.states[i].add(arg)
		}
	}
}

// ---------------------------------------------------------------------------
// aggregate-state merging

// mergeableAggState is an aggState whose accumulator over a row set
// can be folded from per-partition accumulators over disjoint subsets.
type mergeableAggState interface {
	aggState
	merge(other aggState)
}

func (s *countState) merge(other aggState) { s.n += other.(*countState).n }

func (s *sumState) merge(other aggState) {
	o := other.(*sumState)
	s.sum += o.sum
	s.valid = s.valid || o.valid
}

func (s *avgState) merge(other aggState) {
	o := other.(*avgState)
	s.sum += o.sum
	s.n += o.n
}

func (s *minMaxState) merge(other aggState) {
	if o := other.(*minMaxState); o.best != nil {
		s.add(o.best)
	}
}

// ---------------------------------------------------------------------------
// parallel hash-join probe

// parProbe is the execution state of a parallel probe: the shared
// read-only build table lives on the hashJoin; workers join their
// probe partitions in place and deliver fully-joined batches over
// per-worker channels, merged in partition order.
type parProbe struct {
	h     *hashJoin
	fleet *parFleet
	chans []chan parRow
	cur   int
	held  *Batch
	pos   int
	// fast marks the code-space probe; mode is its EXPLAIN label.
	fast     bool
	mode     string
	workers  int
	probed   []int64 // per-worker, read after the fleet is joined
	hits     []int64
	stalls   int64
	reported bool
}

// startParProbe decides whether the probe side can fan out, builds
// the shared table (once, single-goroutine — the build side is the
// small side by the PR7 cost choice), and launches the workers.
// ok=false means the caller must open the left input and run the
// serial probe.
func (h *hashJoin) startParProbe(ec *ExecCtx) (bool, error) {
	pp := findParPipe(h.left, h.parDegree)
	if pp == nil {
		return false, nil
	}
	parts := pp.partitions()
	if parts == nil {
		return false, nil
	}
	pj := &parProbe{h: h, fleet: newParFleet(), workers: len(parts)}
	fast, err := h.parFastTable(ec, pp)
	if err != nil {
		return false, err
	}
	if !fast {
		if err := h.buildRightTable(ec); err != nil {
			return false, err
		}
	}
	pj.fast = fast
	pj.mode = "generic"
	if fast {
		pj.mode = "float-bits"
		if v, okV := pp.base.vectorFor(h.fastLCol); okV && !v.IsNumber {
			pj.mode = "dict-codes"
		}
	}
	pj.chans = make([]chan parRow, len(parts))
	pj.probed = make([]int64, len(parts))
	pj.hits = make([]int64, len(parts))
	pj.fleet.wg.Add(len(parts))
	for i, part := range parts {
		pj.chans[i] = make(chan parRow, parBatchChanCap)
		if fast {
			scan := pp.base.cloneForRange(part[0], part[1])
			go pj.fastWorker(ec, scan, pj.chans[i], &pj.probed[i], &pj.hits[i])
		} else {
			pipe := pp.workerSource(part[0], part[1], h.env)
			go pj.genericWorker(ec, pipe, pj.chans[i], &pj.probed[i], &pj.hits[i])
		}
	}
	h.pj = pj
	mParExecOps.Inc()
	mParExecWorkers.Add(int64(len(parts)))
	return true, nil
}

// parFastTable qualifies and builds the code-space shared table from
// the (already open) right input: single ColRef keys on both sides,
// id-capable scans, directly comparable vector representations. The
// probe-side checks run on a zero-row clone. true means h.fastTable
// and h.fastLVecCol are set.
func (h *hashJoin) parFastTable(ec *ExecCtx, pp *parPipe) (bool, error) {
	if !h.batch || len(pp.chain) != 0 || pp.filter != nil {
		return false, nil
	}
	rscan, okR := h.right.(*tableScan)
	if !okR || !rscan.idCapable() {
		return false, nil
	}
	if len(h.leftKeys) != 1 || len(h.rightKeys) != 1 {
		return false, nil
	}
	lcol, okL := h.leftKeys[0].(*ColRef)
	rcol, okC := h.rightKeys[0].(*ColRef)
	if !okL || !okC {
		return false, nil
	}
	rvec, okV := rscan.vectorFor(rcol)
	if !okV {
		return false, nil
	}
	probe := pp.base.cloneForRange(0, 0)
	if err := probe.Open(ec); err != nil {
		return false, err
	}
	idOK := probe.idCapable()
	lvec, okLV := probe.vectorFor(lcol)
	_ = probe.Close()
	if !idOK || !okLV {
		return false, nil
	}
	if lvec.IsNumber != rvec.IsNumber {
		return false, nil
	}
	if !lvec.IsNumber && !lvec.SameDict(rvec) {
		return false, nil
	}
	// build once from the open right scan — identical to joinFast.build
	jf := &joinFast{h: h, rscan: rscan, rvec: rvec, lvec: lvec}
	if err := jf.build(ec); err != nil {
		return false, err
	}
	h.fastTable = jf.table
	h.fastLCol = lcol
	return true, nil
}

// buildRightTable materializes the (already open) right input into the
// rendered-key shared table — the serial buildGeneric loop without the
// left-side hookup.
func (h *hashJoin) buildRightTable(ec *ExecCtx) error {
	rightNext := batchNextFunc(h.right, h.batch)
	h.table = make(map[string][][]jsondom.Value)
	for {
		if err := ec.tickErr(&h.ticks); err != nil {
			return err
		}
		row, ok, err := rightNext(ec)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		k, kok, err := h.keyOf(h.rightCtx, h.keyBuf, row, h.rightKeys)
		h.keyBuf = k
		if err != nil {
			return err
		}
		if !kok {
			continue
		}
		ks := string(k)
		n := rowBytes(row) + int64(len(ks))
		if err := ec.grow(n); err != nil {
			return err
		}
		h.memUsed += n
		h.table[ks] = append(h.table[ks], row)
	}
}

// fastWorker probes one partition against the shared code-space table,
// emitting fully-joined batches. Semantics mirror joinFast.next: NULL
// keys never match, the left-outer pad fires only on key misses, the
// residual is evaluated on the concatenated row and its rejections do
// not pad.
func (pj *parProbe) fastWorker(ec *ExecCtx, scan *tableScan, ch chan parRow, probed, hits *int64) {
	h := pj.h
	defer pj.fleet.wg.Done()
	defer close(ch)
	fail := func(err error) {
		pj.fleet.send(ch, parRow{err: err})
		pj.fleet.stop()
	}
	if err := scan.Open(ec); err != nil {
		fail(err)
		return
	}
	defer scan.Close() //nolint:errcheck // worker-owned clone
	lvec, okLV := scan.vectorFor(h.fastLCol)
	if !okLV {
		fail(fmt.Errorf("parallel probe: key vector vanished at execution"))
		return
	}
	var residCtx *evalCtx
	if h.residual != nil {
		residCtx = h.env.bindCtx(h.sch, h.residual)
	}
	var arena rowArena
	out := getBatch()
	flush := func() bool {
		if out.Len() == 0 {
			return true
		}
		if !pj.fleet.send(ch, parRow{b: out}) {
			putBatch(out)
			out = nil
			return false
		}
		out = getBatch()
		return true
	}
	rightWidth := len(h.right.Schema())
	ticks := 0
	for {
		if pj.fleet.aborted() {
			putBatch(out)
			return
		}
		if err := ec.tickErr(&ticks); err != nil {
			putBatch(out)
			fail(err)
			return
		}
		id, more, err := scan.nextSelID(ec)
		if err != nil {
			putBatch(out)
			fail(err)
			return
		}
		if !more {
			flush()
			putBatch(out)
			return
		}
		*probed++
		key, okKey := keyAt(lvec, id)
		var matches [][]jsondom.Value
		if okKey {
			matches = h.fastTable[key]
		}
		if len(matches) == 0 {
			if !h.leftOuter {
				continue
			}
			row, _, err := scan.materialize(id, scan.rows[id])
			if err != nil {
				putBatch(out)
				fail(err)
				return
			}
			scan.rowsOut++
			pad := arena.alloc(len(row) + rightWidth)
			copy(pad, row)
			for i := len(row); i < len(pad); i++ {
				pad[i] = null
			}
			out.add(pad)
			if out.Len() >= batchSize && !flush() {
				return
			}
			continue
		}
		*hits++
		row, _, err := scan.materialize(id, scan.rows[id])
		if err != nil {
			putBatch(out)
			fail(err)
			return
		}
		scan.rowsOut++
		for _, r := range matches {
			joined := arena.alloc(len(row) + len(r))
			copy(joined, row)
			copy(joined[len(row):], r)
			if residCtx != nil {
				residCtx.row = joined
				v, err := evalExpr(residCtx, h.residual)
				if err != nil {
					putBatch(out)
					fail(err)
					return
				}
				if !truthy(v) {
					continue
				}
			}
			out.add(joined)
			if out.Len() >= batchSize && !flush() {
				return
			}
		}
	}
}

// genericWorker probes one partition's pipeline clone against the
// shared rendered-key table; per-worker key and residual contexts,
// serial probe semantics (pad on key miss only, residual on the
// concatenated row).
func (pj *parProbe) genericWorker(ec *ExecCtx, pipe rowSource, ch chan parRow, probed, hits *int64) {
	h := pj.h
	defer pj.fleet.wg.Done()
	defer close(ch)
	fail := func(err error) {
		pj.fleet.send(ch, parRow{err: err})
		pj.fleet.stop()
	}
	if err := pipe.Open(ec); err != nil {
		fail(err)
		return
	}
	defer pipe.Close() //nolint:errcheck // worker-owned clone
	next := batchNextFunc(pipe, h.batch)
	keyCtx := h.env.bindCtx(pipe.Schema(), h.leftKeys...)
	var keyBuf []byte // worker-local keyOf scratch (h.keyBuf would race)
	var residCtx *evalCtx
	if h.residual != nil {
		residCtx = h.env.bindCtx(h.sch, h.residual)
	}
	var arena rowArena
	out := getBatch()
	flush := func() bool {
		if out.Len() == 0 {
			return true
		}
		if !pj.fleet.send(ch, parRow{b: out}) {
			putBatch(out)
			out = nil
			return false
		}
		out = getBatch()
		return true
	}
	rightWidth := len(h.right.Schema())
	ticks := 0
	for {
		if pj.fleet.aborted() {
			putBatch(out)
			return
		}
		if err := ec.tickErr(&ticks); err != nil {
			putBatch(out)
			fail(err)
			return
		}
		row, ok, err := next(ec)
		if err != nil {
			putBatch(out)
			fail(err)
			return
		}
		if !ok {
			flush()
			putBatch(out)
			return
		}
		*probed++
		k, kok, err := h.keyOf(keyCtx, keyBuf, row, h.leftKeys)
		keyBuf = k
		if err != nil {
			putBatch(out)
			fail(err)
			return
		}
		var matches [][]jsondom.Value
		if kok {
			matches = h.table[string(k)]
		}
		if len(matches) == 0 {
			if !h.leftOuter {
				continue
			}
			pad := arena.alloc(len(row) + rightWidth)
			copy(pad, row)
			for i := len(row); i < len(pad); i++ {
				pad[i] = null
			}
			out.add(pad)
			if out.Len() >= batchSize && !flush() {
				return
			}
			continue
		}
		*hits++
		for _, r := range matches {
			joined := arena.alloc(len(row) + len(r))
			copy(joined, row)
			copy(joined[len(row):], r)
			if residCtx != nil {
				residCtx.row = joined
				v, err := evalExpr(residCtx, h.residual)
				if err != nil {
					putBatch(out)
					fail(err)
					return
				}
				if !truthy(v) {
					continue
				}
			}
			out.add(joined)
			if out.Len() >= batchSize && !flush() {
				return
			}
		}
	}
}

// next drains the merged probe output row by row, channels consumed in
// partition order so the join emits the serial left-major row order.
func (pj *parProbe) next(ec *ExecCtx) ([]jsondom.Value, bool, error) {
	for {
		if pj.held != nil {
			if pj.pos < pj.held.Len() {
				row := pj.held.Row(pj.pos)
				pj.pos++
				return row, true, nil
			}
			putBatch(pj.held)
			pj.held = nil
		}
		r, more := pj.recv()
		if !more {
			pj.report()
			return nil, false, nil
		}
		if r.err != nil {
			return nil, false, r.err
		}
		pj.held, pj.pos = r.b, 0
	}
}

// recv pulls the next batch in partition order, counting a stall when
// the consumer outruns the workers.
func (pj *parProbe) recv() (parRow, bool) {
	for pj.cur < len(pj.chans) {
		ch := pj.chans[pj.cur]
		select {
		case r, ok := <-ch:
			if !ok {
				pj.cur++
				continue
			}
			return r, true
		default:
		}
		mParExecMergeStalls.Inc()
		pj.stalls++
		r, ok := <-ch
		if !ok {
			pj.cur++
			continue
		}
		return r, true
	}
	return parRow{}, false
}

// report flushes the per-worker probe counters to metrics once the
// fleet has drained (or been closed — close joins the workers first,
// making the counters quiescent).
func (pj *parProbe) report() {
	if pj.reported {
		return
	}
	pj.reported = true
	var probed int64
	for _, n := range pj.probed {
		probed += n
	}
	mParExecProbeRows.Add(probed)
}

// close stops the fleet, joins the workers, and recycles any batches
// still in flight — workers parked on a send unblock through the abort
// case, so a partially-drained merge cannot leak goroutines.
func (pj *parProbe) close() {
	pj.fleet.close()
	putBatch(pj.held)
	pj.held = nil
	for _, ch := range pj.chans {
		for r := range ch {
			//fsdmvet:ignore poolcheck r is a drained channel record discarded with this iteration
			putBatch(r.b)
		}
	}
	pj.report()
}

// totals sums the per-worker counters; callers must only use it after
// close (the workers are joined).
func (pj *parProbe) totals() (probed, hits int64) {
	for i := range pj.probed {
		probed += pj.probed[i]
		hits += pj.hits[i]
	}
	return probed, hits
}

// ---------------------------------------------------------------------------
// parallel sort

// parSortRun is one worker's sorted run: rows in key order with their
// evaluated sort keys kept for the merge.
type parSortRun struct {
	rows [][]jsondom.Value
	keys [][]jsondom.Value
	pos  int
	mem  int64
	err  error
}

// buildParallel materializes and sorts per-partition runs in workers;
// ok=false falls back to the serial materialize+sort. The k-way merge
// in Next restores the exact serial order: compareForSort is a total
// preorder, runs hold partition-contiguous rows in stable key order,
// and ties across runs break toward the lower partition index — the
// same order sort.SliceStable produces over the concatenated input.
func (s *sortOp) buildParallel(ec *ExecCtx) (bool, error) {
	pp := findParPipe(s.in, s.parDegree)
	if pp == nil {
		return false, nil
	}
	parts := pp.partitions()
	if parts == nil {
		return false, nil
	}
	fleet := newParFleet()
	runs := make([]parSortRun, len(parts))
	fleet.wg.Add(len(parts))
	for i, part := range parts {
		pipe := pp.workerSource(part[0], part[1], s.env)
		go s.parSortWorker(ec, fleet, pipe, &runs[i])
	}
	fleet.wg.Wait()
	// charge every run before returning any worker's error, so Close
	// releases what all workers charged
	var rows int64
	var err error
	for i := range runs {
		s.memUsed += runs[i].mem
		err = cmp.Or(err, runs[i].err)
		rows += int64(len(runs[i].rows))
	}
	if err != nil {
		return true, err
	}
	s.runs = runs
	s.parStat = fmt.Sprintf("par-sort: workers=%d rows=%d", len(parts), rows)
	mParExecOps.Inc()
	mParExecWorkers.Add(int64(len(parts)))
	return true, nil
}

// parSortWorker materializes one pipeline clone, evaluates the sort
// keys, and stable-sorts the run locally.
func (s *sortOp) parSortWorker(ec *ExecCtx, fleet *parFleet, pipe rowSource, out *parSortRun) {
	defer fleet.wg.Done()
	fail := func(err error) {
		out.err = err
		fleet.stop()
	}
	if err := pipe.Open(ec); err != nil {
		fail(err)
		return
	}
	defer pipe.Close() //nolint:errcheck // worker-owned clone
	next := batchNextFunc(pipe, s.batch)
	ticks := 0
	for {
		if fleet.aborted() {
			return
		}
		if err := ec.tickErr(&ticks); err != nil {
			fail(err)
			return
		}
		row, ok, err := next(ec)
		if err != nil {
			fail(err)
			return
		}
		if !ok {
			break
		}
		n := rowBytes(row)
		if err := ec.grow(n); err != nil {
			fail(err)
			return
		}
		out.mem += n
		out.rows = append(out.rows, row)
	}
	var itemExprs []Expr
	for _, it := range s.items {
		itemExprs = append(itemExprs, it.Expr)
	}
	ctx := s.env.bindCtx(pipe.Schema(), itemExprs...)
	out.keys = make([][]jsondom.Value, len(out.rows))
	for i, row := range out.rows {
		ctx.row = row
		out.keys[i] = make([]jsondom.Value, len(s.items))
		for k, it := range s.items {
			v, err := evalExpr(ctx, it.Expr)
			if err != nil {
				fail(err)
				return
			}
			out.keys[i][k] = v
		}
	}
	idx := make([]int, len(out.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return sortKeyLess(s.items, out.keys[idx[a]], out.keys[idx[b]])
	})
	rows := make([][]jsondom.Value, len(out.rows))
	keys := make([][]jsondom.Value, len(out.rows))
	for i, j := range idx {
		rows[i] = out.rows[j]
		keys[i] = out.keys[j]
	}
	out.rows, out.keys = rows, keys
}

// sortKeyLess is the ORDER BY comparison over evaluated key tuples —
// the exact comparison sortOp's serial sort uses.
func sortKeyLess(items []OrderItem, a, b []jsondom.Value) bool {
	for k, it := range items {
		c := compareForSort(a[k], b[k])
		if it.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

// mergeNext pops the globally-next row off the sorted runs: the
// smallest head key, ties to the lowest partition index (strict-less
// replacement while scanning ascending keeps the earlier run).
func (s *sortOp) mergeNext() ([]jsondom.Value, bool) {
	best := -1
	for i := range s.runs {
		r := &s.runs[i]
		if r.pos >= len(r.rows) {
			continue
		}
		if best < 0 || sortKeyLess(s.items, r.keys[r.pos], s.runs[best].keys[s.runs[best].pos]) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	r := &s.runs[best]
	row := r.rows[r.pos]
	r.pos++
	return row, true
}
