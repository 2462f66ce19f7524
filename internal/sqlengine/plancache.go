// The LRU plan cache behind the OLTP fast path: plain Query/Exec
// calls look their normalized SQL up here and, on a hit, skip the
// parser and planner entirely — the cached preparedPlan is
// instantiated with the execution's parameter values (user binds plus
// auto-parameterized literals) and drained. Entries carry the
// planner-option snapshot and the engine's plan generation at build
// time; a generation bump (DDL, IMC attach/detach) or an option flip
// makes the entry self-invalidate at its next lookup.

package sqlengine

import (
	"container/list"
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/jsondom"
	"repro/internal/metrics"
)

// defaultPlanCacheSize is the plan cache capacity a new engine starts
// with.
const defaultPlanCacheSize = 128

// planEntry is one cached, immutable compiled statement plus the
// binding recipe that maps an execution's literals onto the plan's
// parameter slots.
type planEntry struct {
	// norm is the normalized SQL; key is norm extended with the texts
	// of the fixed literals (appendCacheKey), so statements that differ
	// only in a baked literal (a JSON path, a LIMIT) cache side by side.
	norm string
	key  string
	plan *preparedPlan
	gen  uint64         // engine plan generation at build time
	opts PlannerOptions // planner-option snapshot at build time
	// litParam maps the i-th number/string token to its bind slot, or
	// -1 for tokens whose text is baked into the plan (fixed; the key
	// carries their texts).
	litParam []int
	// nUser is the user-supplied parameter count the plan was built
	// for; nSlots is nUser plus the auto-parameterized literal count.
	nUser, nSlots int
	// statsFP fingerprints the power-of-two size buckets of the base
	// tables the plan reads (planStatsFP); a lookup whose recomputed
	// fingerprint differs re-plans, so cost-based decisions track
	// statistics drift.
	statsFP uint64
}

// bindLits assembles the execution parameter vector: the caller's
// values in slots [0,nUser) and the lookup's literal tokens converted
// into the slots recorded at build time. It reports false when the
// token stream does not fit the entry. Fixed literals need no check:
// the lookup key carries their texts.
func (ent *planEntry) bindLits(user []jsondom.Value, lits []token) ([]jsondom.Value, bool) {
	if len(lits) != len(ent.litParam) {
		return nil, false
	}
	exec := make([]jsondom.Value, ent.nSlots)
	copy(exec, user)
	for i, t := range lits {
		slot := ent.litParam[i]
		if slot < 0 {
			continue
		}
		v, err := litValue(t)
		if err != nil {
			return nil, false
		}
		exec[slot] = v
	}
	return exec, true
}

// fixedTokens returns the indices of the literal tokens baked into the
// plan.
func (ent *planEntry) fixedTokens() []int {
	var fixed []int
	for i, slot := range ent.litParam {
		if slot < 0 {
			fixed = append(fixed, i)
		}
	}
	return fixed
}

// planCache is a mutex-guarded LRU of planEntry keyed by normalized
// SQL plus fixed-literal texts. All methods are safe for concurrent
// use.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *planEntry
	byKey map[string]*list.Element
	// shapes records, per normalized SQL with cached entries, which
	// literal tokens are fixed, so a lookup can build the full key
	// before parsing; refs counts the entries sharing the shape, so
	// the map never outgrows the LRU.
	shapes map[string]*cacheShape
	keyBuf []byte // lookup-key scratch
}

// cacheShape is the fixed-literal layout of one normalized statement:
// which number/string tokens the parser bakes into the plan. The
// layout is a property of the token stream the normalized text
// encodes, so every entry of one normalized text shares it.
type cacheShape struct {
	fixed []int
	refs  int
}

func newPlanCache(capacity int) *planCache {
	if capacity < 0 {
		capacity = 0
	}
	return &planCache{cap: capacity, lru: list.New(), byKey: make(map[string]*list.Element),
		shapes: make(map[string]*cacheShape)}
}

// appendCacheKey appends to dst a normalized text extended with the
// texts of its fixed literal tokens (length-prefixed, so no text can
// forge a boundary); ok=false when the tokens do not fit the layout.
func appendCacheKey(dst []byte, norm string, lits []token, fixed []int) ([]byte, bool) {
	dst = append(dst, norm...)
	for _, i := range fixed {
		if i >= len(lits) {
			return dst, false
		}
		dst = append(dst, 0)
		dst = strconv.AppendInt(dst, int64(len(lits[i].text)), 10)
		dst = append(dst, ':')
		dst = append(dst, lits[i].text...)
	}
	return dst, true
}

// lookupLocked finds the entry for a normalized text and its literal
// tokens. The key is built in the cache's scratch buffer (guarded by
// mu), and the map lookup on its bytes does not copy them.
func (c *planCache) lookupLocked(norm string, lits []token) *list.Element {
	sh := c.shapes[norm]
	if sh == nil {
		return nil
	}
	if len(sh.fixed) == 0 {
		return c.byKey[norm]
	}
	var ok bool
	c.keyBuf, ok = appendCacheKey(c.keyBuf[:0], norm, lits, sh.fixed)
	if !ok {
		return nil
	}
	return c.byKey[string(c.keyBuf)]
}

// get returns the entry for the statement, promoting it to most
// recently used.
func (c *planCache) get(norm string, lits []token) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.lookupLocked(norm, lits)
	if el == nil {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry)
}

// peek returns the entry for the statement without touching recency
// (EXPLAIN's cache-status probe).
func (c *planCache) peek(norm string, lits []token) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.lookupLocked(norm, lits); el != nil {
		return el.Value.(*planEntry)
	}
	return nil
}

// put inserts or replaces the entry for ent.key, evicting from the
// cold end when over capacity.
func (c *planCache) put(ent *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap == 0 {
		return
	}
	if el, ok := c.byKey[ent.key]; ok {
		el.Value = ent
		c.lru.MoveToFront(el)
		return
	}
	sh := c.shapes[ent.norm]
	if sh == nil {
		sh = &cacheShape{}
		c.shapes[ent.norm] = sh
	}
	sh.fixed = ent.fixedTokens()
	sh.refs++
	c.byKey[ent.key] = c.lru.PushFront(ent)
	for c.lru.Len() > c.cap {
		c.evictBackLocked()
	}
}

// remove drops ent if it is still the cached entry for its key.
func (c *planCache) remove(ent *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[ent.key]; ok && el.Value == ent {
		c.dropLocked(el)
	}
}

func (c *planCache) dropLocked(el *list.Element) {
	ent := el.Value.(*planEntry)
	delete(c.byKey, ent.key)
	c.lru.Remove(el)
	if sh := c.shapes[ent.norm]; sh != nil {
		if sh.refs--; sh.refs <= 0 {
			delete(c.shapes, ent.norm)
		}
	}
}

func (c *planCache) evictBackLocked() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	c.dropLocked(el)
	mPlanCacheEvictions.Inc()
}

// setCapacity resizes the cache, evicting cold entries as needed;
// n <= 0 disables caching and purges everything.
func (c *planCache) setCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.cap = n
	for c.lru.Len() > c.cap {
		c.evictBackLocked()
	}
}

func (c *planCache) capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// SetPlanCacheSize resizes the engine's plan cache; n <= 0 disables
// plan caching entirely (every statement hard-parses, the pre-cache
// behavior — used by ablation benchmarks).
func (e *Engine) SetPlanCacheSize(n int) {
	e.plans.setCapacity(n)
}

// PlanCacheLen reports how many plans are currently cached.
func (e *Engine) PlanCacheLen() int {
	return e.plans.len()
}

// invalidatePlans bumps the plan generation, making every cached plan
// (and every PreparedStmt's compiled plan) stale at its next use.
// Called on any catalog or planner-visible change: DDL, view changes,
// search-index creation, virtual columns, IMC attach/detach.
func (e *Engine) invalidatePlans() {
	e.planGen.Add(1)
	mPlanCacheInvalidations.Inc()
}

// plannerSnapshot copies the engine's planner options; PlannerOptions
// is a comparable struct, so the copy doubles as the cache validity
// check against later flag flips.
func (e *Engine) plannerSnapshot() PlannerOptions {
	return e.Planner
}

// buildEntry compiles sel (which buildEntry rewrites in place) into a
// cache entry: parameterizable literals become bind slots numbered
// after the user parameters, in source-token order; the rest have
// their texts extend the entry's key.
func (e *Engine) buildEntry(norm string, sel *SelectStmt, lits []token, nUser int, gen uint64, opts PlannerOptions) (*planEntry, error) {
	byOff := collectParamLiterals(sel)
	ent := &planEntry{norm: norm, gen: gen, opts: opts, nUser: nUser}
	slot := nUser
	assign := make(map[int]int, len(byOff))
	for _, t := range lits {
		if _, ok := byOff[t.pos]; ok {
			ent.litParam = append(ent.litParam, slot)
			assign[t.pos] = slot
			slot++
		} else {
			ent.litParam = append(ent.litParam, -1)
		}
	}
	ent.nSlots = slot
	ent.key = norm
	if fixed := ent.fixedTokens(); len(fixed) > 0 {
		k, _ := appendCacheKey(nil, norm, lits, fixed)
		ent.key = string(k)
	}
	if len(assign) > 0 {
		rewriteSelect(sel, func(x Expr) Expr {
			if l, ok := x.(*Literal); ok && l.Off > 0 {
				if s, ok := assign[l.Off]; ok {
					return &Param{Index: s}
				}
			}
			return x
		})
	}
	plan, err := e.planSelectStmt(sel)
	if err != nil {
		return nil, err
	}
	ent.plan = plan
	ent.statsFP = planStatsFP(plan.root)
	return ent, nil
}

// execCached is the plan-cache fast path for Query/Exec: if sql is a
// cacheable SELECT it is served through the cache (counting a hit or
// a miss-and-build) and handled is true; otherwise handled is false
// and the caller takes the ordinary parse-and-execute path.
func (e *Engine) execCached(ctx context.Context, sql string, params []jsondom.Value) (res *Result, handled bool, err error) {
	if e.plans.capacity() == 0 {
		return nil, false, nil
	}
	key, lits, isSelect, nerr := normalizeSQL(sql)
	if nerr != nil || !isSelect {
		return nil, false, nil
	}
	gen := e.planGen.Load()
	opts := e.plannerSnapshot()
	if ent := e.plans.get(key, lits); ent != nil {
		if ent.gen != gen || ent.opts != opts {
			e.plans.remove(ent)
		} else if !opts.DisableCostBasedPlanner && ent.statsFP != planStatsFP(ent.plan.root) {
			// statistics drift: the plan's cost decisions were made
			// against table sizes that have since crossed a
			// power-of-two bucket — re-plan with fresh estimates
			mCostStatsDrift.Inc()
			e.plans.remove(ent)
		} else if ent.nUser != len(params) {
			// parameter-count drift: let the uncached path produce the
			// engine's usual missing/extra-parameter semantics
			return nil, false, nil
		} else if exec, ok := ent.bindLits(params, lits); ok {
			mPlanCacheHits.Inc()
			mSoftParse.Inc()
			res, err := e.runWrapped(sql, 0, nil, func(collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
				return e.runPlan(ctx, ent.plan, exec, collect, tr)
			})
			return res, true, err
		}
	}
	// miss: hard-parse, compile, cache, then execute through the new
	// entry so the first execution also runs the shared plan.
	mPlanCacheMisses.Inc()
	mHardParse.Inc()
	t0 := time.Now()
	stmt, perr := ParseStatement(sql)
	if perr != nil {
		return nil, true, perr
	}
	parseD := time.Since(t0)
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		// normalization and the parser disagree on the statement kind;
		// defer to the parser
		res, err := e.execStmt(ctx, sql, parseD, stmt, params)
		return res, true, err
	}
	ent, berr := e.buildEntry(key, sel, lits, len(params), gen, opts)
	if berr != nil {
		// planning failed; re-parse so the ordinary path reports the
		// error with its usual metrics accounting
		stmt2, perr2 := ParseStatement(sql)
		if perr2 != nil {
			return nil, true, perr2
		}
		res, err := e.execStmt(ctx, sql, parseD, stmt2, params)
		return res, true, err
	}
	e.plans.put(ent)
	exec, ok := ent.bindLits(params, lits)
	if !ok {
		// cannot happen: the entry was built from these very tokens
		return nil, false, nil
	}
	res, err = e.runWrapped(sql, parseD, nil, func(collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
		return e.runPlan(ctx, ent.plan, exec, collect, tr)
	})
	return res, true, err
}
