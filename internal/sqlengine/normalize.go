// SQL normalization for the plan cache: cursor-sharing-style literal
// auto-parameterization. The cache key is the token stream with every
// number, string, and bind-parameter token replaced by a kind-distinct
// marker, so the eleven NOBENCH query shapes hit the same cached plan
// no matter which constants each execution carries.
//
// Not every literal token becomes a bind slot: LIMIT counts, SAMPLE
// percentages, JSON path texts, and positional ORDER BY ordinals are
// consumed by the parser into plain struct fields rather than Literal
// nodes, and changing them changes the plan. Their texts extend the
// cache key (appendCacheKey in plancache.go), so statements that differ only
// in a JSON path each keep their own entry instead of replacing one
// another.

package sqlengine

import "repro/internal/jsondom"

// normalizeSQL lexes sql and returns the literal-insensitive cache
// key, the number/string literal tokens in source order, and whether
// the statement is a SELECT (the only cacheable kind).
func normalizeSQL(sql string) (key string, lits []token, isSelect bool, err error) {
	toks, err := lex(sql)
	if err != nil {
		return "", nil, false, err
	}
	var b []byte
	for i, t := range toks {
		if t.kind == tkEOF {
			break
		}
		if i > 0 {
			b = append(b, ' ')
		}
		switch t.kind {
		case tkNumber:
			b = append(b, '#', '?')
			lits = append(lits, t)
		case tkString:
			b = append(b, '\'', '?')
			lits = append(lits, t)
		case tkParam:
			b = append(b, '?')
		case tkQuotedIdent:
			b = append(b, '"')
			b = append(b, t.text...)
			b = append(b, '"')
		default:
			b = append(b, t.text...)
		}
	}
	isSelect = len(toks) > 0 && toks[0].kind == tkIdent && toks[0].text == "select"
	return string(b), lits, isSelect, nil
}

// litValue converts a literal token to the same jsondom value the
// parser would have produced for it.
func litValue(t token) (jsondom.Value, error) {
	if t.kind == tkNumber {
		return jsondom.N(t.text)
	}
	return jsondom.String(t.text), nil
}

// rewriteSelect applies rw bottom-up to every expression in the
// statement, including subqueries and join conditions, reassigning
// each expression field to rw's result.
func rewriteSelect(stmt *SelectStmt, rw func(Expr) Expr) {
	for i := range stmt.Items {
		stmt.Items[i].Expr = rewriteExpr(stmt.Items[i].Expr, rw)
	}
	for i := range stmt.From {
		stmt.From[i] = rewriteFrom(stmt.From[i], rw)
	}
	stmt.Where = rewriteExpr(stmt.Where, rw)
	for i := range stmt.GroupBy {
		stmt.GroupBy[i] = rewriteExpr(stmt.GroupBy[i], rw)
	}
	stmt.Having = rewriteExpr(stmt.Having, rw)
	for i := range stmt.OrderBy {
		stmt.OrderBy[i].Expr = rewriteExpr(stmt.OrderBy[i].Expr, rw)
	}
}

func rewriteFrom(f FromItem, rw func(Expr) Expr) FromItem {
	switch t := f.(type) {
	case *SubqueryRef:
		rewriteSelect(t.Query, rw)
	case *JSONTableRef:
		t.Arg = rewriteExpr(t.Arg, rw)
	case *JoinRef:
		t.Left = rewriteFrom(t.Left, rw)
		t.Right = rewriteFrom(t.Right, rw)
		t.On = rewriteExpr(t.On, rw)
	}
	return f
}

func rewriteExpr(e Expr, rw func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case *BinOp:
		t.L = rewriteExpr(t.L, rw)
		t.R = rewriteExpr(t.R, rw)
	case *UnOp:
		t.X = rewriteExpr(t.X, rw)
	case *IsNullExpr:
		t.X = rewriteExpr(t.X, rw)
	case *InExpr:
		t.X = rewriteExpr(t.X, rw)
		for i := range t.List {
			t.List[i] = rewriteExpr(t.List[i], rw)
		}
	case *LikeExpr:
		t.X = rewriteExpr(t.X, rw)
		t.Pattern = rewriteExpr(t.Pattern, rw)
	case *BetweenExpr:
		t.X = rewriteExpr(t.X, rw)
		t.Lo = rewriteExpr(t.Lo, rw)
		t.Hi = rewriteExpr(t.Hi, rw)
	case *FuncCall:
		for i := range t.Args {
			t.Args[i] = rewriteExpr(t.Args[i], rw)
		}
	case *WindowFunc:
		for i := range t.Args {
			t.Args[i] = rewriteExpr(t.Args[i], rw)
		}
		for i := range t.OrderBy {
			t.OrderBy[i].Expr = rewriteExpr(t.OrderBy[i].Expr, rw)
		}
	case *JSONValueExpr:
		t.Arg = rewriteExpr(t.Arg, rw)
	case *JSONExistsExpr:
		t.Arg = rewriteExpr(t.Arg, rw)
	case *JSONQueryExpr:
		t.Arg = rewriteExpr(t.Arg, rw)
	case *JSONTextContainsExpr:
		t.Arg = rewriteExpr(t.Arg, rw)
	case *OSONExpr:
		t.Arg = rewriteExpr(t.Arg, rw)
	}
	return rw(e)
}

// collectParamLiterals walks the statement and returns, keyed by
// source token offset, every Literal that literal auto-
// parameterization may replace with a bind slot.
func collectParamLiterals(stmt *SelectStmt) map[int]*Literal {
	byOff := make(map[int]*Literal)
	rewriteSelect(stmt, func(x Expr) Expr {
		if l, ok := x.(*Literal); ok && l.Off > 0 {
			byOff[l.Off] = l
		}
		return x
	})
	return byOff
}
