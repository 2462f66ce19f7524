// JSON_TABLE column pruning: one pass over a finished plan computes
// which JSON_TABLE output columns anything above the operator reads,
// and the operator's ExpandState evaluates only those paths (the
// others are emitted as NULL). A De-normalized Master-Detail view
// declares every master and detail column, while a query over it
// typically reads a few; without pruning each row pays for all of them.
//
// The pass is the "remove redundant data" rule of an analyzer, run
// once per planned statement: a need set over each operator's output
// schema is pushed down to its inputs, adding the columns the
// operator's own expressions read. It is conservative wherever it
// cannot see: an unresolvable or ambiguous column reference, or an
// operator it does not model, marks every input column read. Nested
// view and derived-table plans are planned (and pruned) first; the
// outermost statement's pass runs last and sets the final masks.

package sqlengine

// pruneJSONTableColumns sets the read mask of every JSON_TABLE operator
// in the plan from the columns the plan above it reads. Every output
// column of the root is read.
func pruneJSONTableColumns(root rowSource) {
	pruneColumns(root, allNeeded(len(root.Schema())))
}

func allNeeded(n int) []bool {
	need := make([]bool, n)
	for i := range need {
		need[i] = true
	}
	return need
}

// pruneColumns pushes need (one flag per output column of src) down
// through src to its inputs.
func pruneColumns(src rowSource, need []bool) {
	switch t := src.(type) {
	case *projectOp:
		in := make([]bool, len(t.in.Schema()))
		for i, x := range t.exprs {
			if i >= len(need) || need[i] {
				markReads(in, t.in.Schema(), x)
			}
		}
		pruneColumns(t.in, in)
	case *filterOp:
		in := append([]bool(nil), need...)
		markReads(in, t.in.Schema(), t.pred)
		pruneColumns(t.in, in)
	case *aliasWrap:
		pruneColumns(t.in, need)
	case *limitOp:
		pruneColumns(t.in, need)
	case *sortOp:
		in := append([]bool(nil), need...)
		for _, it := range t.items {
			markReads(in, t.in.Schema(), it.Expr)
		}
		pruneColumns(t.in, in)
	case *windowOp:
		inSch := t.in.Schema()
		in := append([]bool(nil), need[:len(inSch)]...)
		for _, f := range t.funcs {
			markReads(in, inSch, f)
		}
		pruneColumns(t.in, in)
	case *groupAggOp:
		inSch := t.in.Schema()
		in := append([]bool(nil), need[:len(inSch)]...)
		for _, x := range t.groupBy {
			markReads(in, inSch, x)
		}
		for _, a := range t.aggs {
			markReads(in, inSch, a)
		}
		pruneColumns(t.in, in)
	case *hashJoin:
		all := append([]bool(nil), need...)
		if t.residual != nil {
			markReads(all, t.sch, t.residual)
		}
		lw := len(t.left.Schema())
		l, r := all[:lw], all[lw:]
		for _, k := range t.leftKeys {
			markReads(l, t.left.Schema(), k)
		}
		for _, k := range t.rightKeys {
			markReads(r, t.right.Schema(), k)
		}
		pruneColumns(t.left, l)
		pruneColumns(t.right, r)
	case *crossJoin:
		lw := len(t.left.Schema())
		pruneColumns(t.left, need[:lw:lw])
		pruneColumns(t.right, need[lw:])
	case *jsonTableOp:
		lw := 0
		if t.left != nil {
			lw = len(t.left.Schema())
		}
		t.setReadCols(need[lw:])
		if t.left != nil {
			l := append([]bool(nil), need[:lw]...)
			markReads(l, t.left.Schema(), t.ref.Arg)
			pruneColumns(t.left, l)
		}
	default:
		// scans are leaves; any other operator reads what it likes
		if n, ok := src.(opNode); ok {
			for _, c := range n.opChildren() {
				pruneColumns(c, allNeeded(len(c.Schema())))
			}
		}
	}
}

// setReadCols records the JSON_TABLE output columns the plan reads;
// nil (every column read) when none is pruned.
func (j *jsonTableOp) setReadCols(need []bool) {
	for _, r := range need {
		if !r {
			j.readCols = append([]bool(nil), need...)
			return
		}
	}
	j.readCols = nil
}

// markReads flags in need every column of sch that x reads. A
// reference that does not resolve to exactly one column marks every
// column: the pass never guesses.
func markReads(need []bool, sch Schema, x Expr) {
	if !walkColRefs(x, func(c *ColRef) bool {
		i, err := sch.Resolve(c.Table, c.Name)
		if err != nil {
			return false
		}
		need[i] = true
		return true
	}) {
		for i := range need {
			need[i] = true
		}
	}
}

// walkColRefs calls fn for every column reference in x, window
// function arguments and orderings included. It returns false as soon
// as fn does, or on an expression kind it does not know.
func walkColRefs(x Expr, fn func(*ColRef) bool) bool {
	switch t := x.(type) {
	case nil, *Literal, *Param:
		return true
	case *ColRef:
		return fn(t)
	case *BinOp:
		return walkColRefs(t.L, fn) && walkColRefs(t.R, fn)
	case *UnOp:
		return walkColRefs(t.X, fn)
	case *IsNullExpr:
		return walkColRefs(t.X, fn)
	case *InExpr:
		for _, a := range t.List {
			if !walkColRefs(a, fn) {
				return false
			}
		}
		return walkColRefs(t.X, fn)
	case *LikeExpr:
		return walkColRefs(t.X, fn) && walkColRefs(t.Pattern, fn)
	case *BetweenExpr:
		return walkColRefs(t.X, fn) && walkColRefs(t.Lo, fn) && walkColRefs(t.Hi, fn)
	case *FuncCall:
		for _, a := range t.Args {
			if !walkColRefs(a, fn) {
				return false
			}
		}
		return true
	case *WindowFunc:
		for _, a := range t.Args {
			if !walkColRefs(a, fn) {
				return false
			}
		}
		for _, o := range t.OrderBy {
			if !walkColRefs(o.Expr, fn) {
				return false
			}
		}
		return true
	case *JSONValueExpr:
		return walkColRefs(t.Arg, fn)
	case *JSONExistsExpr:
		return walkColRefs(t.Arg, fn)
	case *JSONQueryExpr:
		return walkColRefs(t.Arg, fn)
	case *JSONTextContainsExpr:
		return walkColRefs(t.Arg, fn)
	case *OSONExpr:
		return walkColRefs(t.Arg, fn)
	}
	return false
}
