// JSON_EXISTS prefilters for JSON_TABLE: WHERE conjuncts over a
// JSON_TABLE's output columns are translated into SQL/JSON path
// predicates evaluated on the document *before* row expansion (§6.3:
// "The WHERE predicates on the views are pushed down as JSON_EXISTS()
// with JSON path predicates to be filtered").
//
// A prefilter is an implied condition: a document that produces any
// row satisfying the conjunct must satisfy the prefilter, so skipping
// non-matching documents is sound while the residual WHERE still runs.
// The payoff is the §6.3 performance asymmetry: a binary format
// answers the existence probe by navigating a handful of fields, while
// text must be parsed in full either way.

package sqlengine

import (
	"strconv"

	"repro/internal/jsondom"
	"repro/internal/jsonpath"
	"repro/internal/pathengine"
	"repro/internal/sqljson"
)

// attachPrefilters inspects the WHERE conjuncts and attaches every
// translatable one to the JSON_TABLE operator. Conjuncts over columns
// of the same column-tree clause (the row pattern's own columns, or one
// NESTED PATH clause) fuse into one path filter joined with '&&': one
// context node must satisfy them all, since a row takes every column
// of a clause from the same match. Groups of constant-only conjuncts
// compile here, once per plan; a group with a conjunct that references
// bind parameters is kept as a spec and translated by the operator's
// Open with each execution's values, so a cached plan never bakes
// stale parameter constants into an implied filter.
func attachPrefilters(op *jsonTableOp, where Expr) {
	for _, g := range groupPrefilters(op.ref, splitAnd(where)) {
		if g.dynamic {
			op.preSpecs = append(op.preSpecs, g)
			continue
		}
		if pf, n := g.compile(op.ref, nil); pf != nil {
			op.preFilters = append(op.preFilters, pf)
			op.preLabels = append(op.preLabels, g.label(op.ref, n))
		}
	}
}

// prefilterGroup is the conjuncts over the columns of one column-tree
// clause, in WHERE order (the cost-ordered conjuncts put the most
// selective first, which the '&&' short-circuit keeps).
type prefilterGroup struct {
	// chain is the NESTED PATH chain from the row pattern to the
	// clause; empty for the row pattern's own columns.
	chain   []*sqljson.NestedPath
	conjs   []Expr
	dynamic bool // some conjunct references a bind parameter
}

// groupPrefilters assigns every conjunct of a translatable shape to
// the clause owning its column, keeping clauses in first-seen order.
func groupPrefilters(ref *JSONTableRef, conjs []Expr) []*prefilterGroup {
	var groups []*prefilterGroup
	for _, c := range conjs {
		col, ok := prefilterColumn(ref, c)
		if !ok {
			continue
		}
		chain, _, ok := findJTColumn(ref.Def, col)
		if !ok {
			continue
		}
		var g *prefilterGroup
		for _, h := range groups {
			if sameClause(h.chain, chain) {
				g = h
				break
			}
		}
		if g == nil {
			g = &prefilterGroup{chain: chain}
			groups = append(groups, g)
		}
		g.conjs = append(g.conjs, c)
		g.dynamic = g.dynamic || exprHasParam(c)
	}
	return groups
}

func sameClause(a, b []*sqljson.NestedPath) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return a[len(a)-1] == b[len(b)-1]
}

// compile translates the group's conjuncts with the given bind values
// and fuses the ones that translate into one path: the row-pattern
// steps, the clause's NESTED PATH steps, and one filter step. It
// returns nil when no conjunct translates, and the number fused.
func (g *prefilterGroup) compile(ref *JSONTableRef, params []jsondom.Value) (*pathengine.Compiled, int) {
	var pred jsonpath.Predicate
	n := 0
	for _, c := range g.conjs {
		p, ok := translatePrefilter(ref, c, params)
		if !ok {
			continue
		}
		n++
		if pred == nil {
			pred = p
		} else {
			pred = jsonpath.AndPred{L: pred, R: p}
		}
	}
	if pred == nil {
		return nil, 0
	}
	var steps []jsonpath.Step
	steps = append(steps, ref.Def.RowPath.Path.Steps...)
	for _, np := range g.chain {
		steps = append(steps, np.Path.Path.Steps...)
	}
	// the filter's context item is the clause's match node itself, even
	// when that node is an array: a row's columns unwrap such a match
	// one lax field step at a time, so they may come from different
	// elements, which a per-element conjunction would miss
	steps = append(steps, jsonpath.FilterStep{Pred: pred, NoUnwrap: true})
	p := &jsonpath.Path{Lax: true, Steps: steps, Text: "$<prefilter:" + g.clauseText(ref) + ">"}
	return pathengine.Compile(p), n
}

// clauseText names the clause by its path: the NESTED PATH text, or
// the row pattern's for its own columns.
func (g *prefilterGroup) clauseText(ref *JSONTableRef) string {
	if len(g.chain) == 0 {
		return ref.Def.RowPath.Path.Text
	}
	return g.chain[len(g.chain)-1].Path.Path.Text
}

// label is the group's EXPLAIN entry: the clause path and the number
// of conjuncts fused into its filter.
func (g *prefilterGroup) label(ref *JSONTableRef, n int) string {
	return g.clauseText(ref) + ":" + strconv.Itoa(n)
}

// exprHasParam reports whether the expression references a bind
// parameter anywhere.
func exprHasParam(e Expr) bool {
	found := false
	var walk func(Expr)
	walk = func(x Expr) {
		if found {
			return
		}
		switch t := x.(type) {
		case nil:
		case *Param:
			found = true
		case *BinOp:
			walk(t.L)
			walk(t.R)
		case *UnOp:
			walk(t.X)
		case *IsNullExpr:
			walk(t.X)
		case *InExpr:
			walk(t.X)
			for _, a := range t.List {
				walk(a)
			}
		case *LikeExpr:
			walk(t.X)
			walk(t.Pattern)
		case *BetweenExpr:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
		case *FuncCall:
			for _, a := range t.Args {
				walk(a)
			}
		case *WindowFunc:
			for _, a := range t.Args {
				walk(a)
			}
			for _, o := range t.OrderBy {
				walk(o.Expr)
			}
		case *JSONValueExpr:
			walk(t.Arg)
		case *JSONExistsExpr:
			walk(t.Arg)
		case *JSONQueryExpr:
			walk(t.Arg)
		case *JSONTextContainsExpr:
			walk(t.Arg)
		case *OSONExpr:
			walk(t.Arg)
		}
	}
	walk(e)
	return found
}

// prefilterColumn reports the JSON_TABLE column a conjunct of a
// translatable shape constrains: a comparison, IN list or BETWEEN of
// one of the table's columns against literals and bind parameters.
func prefilterColumn(ref *JSONTableRef, c Expr) (string, bool) {
	var col Expr
	var vals []Expr
	switch t := c.(type) {
	case *BinOp:
		if _, ok := prefilterCmpOps[t.Op]; !ok {
			return "", false
		}
		col, vals = t.L, []Expr{t.R}
		if _, ok := t.L.(*ColRef); !ok {
			col, vals = t.R, []Expr{t.L}
		}
	case *InExpr:
		if t.Not || len(t.List) == 0 {
			return "", false
		}
		col, vals = t.X, t.List
	case *BetweenExpr:
		if t.Not {
			return "", false
		}
		col, vals = t.X, []Expr{t.Lo, t.Hi}
	default:
		return "", false
	}
	cr, ok := col.(*ColRef)
	if !ok || (cr.Table != "" && cr.Table != ref.Alias) {
		return "", false
	}
	for _, v := range vals {
		switch v.(type) {
		case *Literal, *Param:
		default:
			return "", false
		}
	}
	return cr.Name, true
}

var prefilterCmpOps = map[string]jsonpath.CmpOp{
	"=": jsonpath.OpEq, "!=": jsonpath.OpNe,
	"<": jsonpath.OpLt, "<=": jsonpath.OpLe,
	">": jsonpath.OpGt, ">=": jsonpath.OpGe,
}

var prefilterFlip = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}

// translatePrefilter converts one conjunct into a predicate over the
// node of the clause owning its column, or reports that it has no path
// equivalent.
//
// The column's path operand carries the column's own conversion
// (ReturnType.Conversion), so the predicate compares what the column
// holds, not the raw JSON scalar: a NUMBER column holding the string
// "9" compares as 9, as the residual WHERE sees it. A constant must be
// of the kind the conversion yields (a number for NUMBER, a string for
// VARCHAR2); SQL compares other pairings through implicit conversions
// the path comparison does not make, so those conjuncts are not
// translated.
func translatePrefilter(ref *JSONTableRef, c Expr, params []jsondom.Value) (jsonpath.Predicate, bool) {
	col, ok := prefilterColumn(ref, c)
	if !ok {
		return nil, false
	}
	_, tc, ok := findJTColumn(ref.Def, col)
	if !ok {
		return nil, false
	}
	// the column path must be a plain field chain for @-relative use
	if _, whole := tc.Path.Path.FieldChain(); !whole {
		return nil, false
	}
	conv, ok := tc.Type.Conversion()
	if !ok {
		return nil, false
	}
	constVal := func(x Expr) (jsondom.Value, bool) {
		var v jsondom.Value
		switch t := x.(type) {
		case *Literal:
			v = t.Val
		case *Param:
			if t.Index >= len(params) {
				return nil, false
			}
			v = params[t.Index]
		default:
			return nil, false
		}
		switch v.Kind() {
		case jsondom.KindNumber, jsondom.KindDouble:
			return v, conv == jsonpath.ConvNumber
		case jsondom.KindString:
			return v, conv == jsonpath.ConvString
		}
		return nil, false
	}
	rel := jsonpath.PathOperand{Conv: conv,
		Path: &jsonpath.Path{Lax: true, Steps: tc.Path.Path.Steps, Text: "@" + tc.Path.Path.Text}}
	cmp := func(op jsonpath.CmpOp, v jsondom.Value) jsonpath.Predicate {
		return jsonpath.CmpPred{Left: rel, Op: op, Right: jsonpath.LiteralOperand{Value: v}}
	}

	switch t := c.(type) {
	case *BinOp:
		op := t.Op
		other := t.R
		if cr, isCol := t.L.(*ColRef); !isCol || cr.Name != col {
			op, other = prefilterFlip[t.Op], t.L
		}
		v, ok := constVal(other)
		if !ok {
			return nil, false
		}
		return cmp(prefilterCmpOps[op], v), true
	case *InExpr:
		var pred jsonpath.Predicate
		for _, x := range t.List {
			v, ok := constVal(x)
			if !ok {
				return nil, false
			}
			if pred == nil {
				pred = cmp(jsonpath.OpEq, v)
			} else {
				pred = jsonpath.OrPred{L: pred, R: cmp(jsonpath.OpEq, v)}
			}
		}
		return pred, true
	case *BetweenExpr:
		lo, ok1 := constVal(t.Lo)
		hi, ok2 := constVal(t.Hi)
		if !ok1 || !ok2 {
			return nil, false
		}
		return jsonpath.AndPred{L: cmp(jsonpath.OpGe, lo), R: cmp(jsonpath.OpLe, hi)}, true
	}
	return nil, false
}

// findJTColumn locates a column by name, returning the NESTED PATH
// chain from the row pattern to its clause (pointers into the shared,
// immutable definition, so a clause is identified by its last element).
func findJTColumn(def *sqljson.TableDef, name string) ([]*sqljson.NestedPath, sqljson.TableColumn, bool) {
	for _, c := range def.Columns {
		if c.Name == name {
			return nil, c, true
		}
	}
	for i := range def.Nested {
		if chain, c, ok := findNested(&def.Nested[i], name); ok {
			return chain, c, true
		}
	}
	return nil, sqljson.TableColumn{}, false
}

func findNested(n *sqljson.NestedPath, name string) ([]*sqljson.NestedPath, sqljson.TableColumn, bool) {
	for _, c := range n.Columns {
		if c.Name == name {
			return []*sqljson.NestedPath{n}, c, true
		}
	}
	for i := range n.Nested {
		if chain, c, ok := findNested(&n.Nested[i], name); ok {
			return append([]*sqljson.NestedPath{n}, chain...), c, true
		}
	}
	return nil, sqljson.TableColumn{}, false
}
