// EvalState: a reusable per-query scratch arena for the DOM engine.
//
// Path evaluation is set-at-a-time — every step maps a node sequence to
// the next — and the per-step sequences, predicate operand buffers, and
// descendant stacks are pure scratch: nothing in them survives past the
// result of one Eval call. An EvalState owns freelists of those
// buffers so an operator evaluating the same paths over N documents
// performs zero slice allocations in steady state; scalar operands flow
// through unboxed jsondom.Scalar buffers so predicate evaluation also
// skips the per-value interface boxing.
//
// Ownership rules:
//
//   - A slice returned by (*EvalState).Eval is owned by the state. It
//     is valid until handed back via PutNodes (or until the state is
//     discarded); callers must not retain it across a PutNodes or a
//     later Eval that could recycle it.
//   - Node handles (N) inside the slices are position references into
//     the evaluated tree; retaining what they point to is governed by
//     the tree's own contract, not the state's.
//   - An EvalState is single-goroutine scratch. Parallel operators give
//     each worker its own state.
//
// The package-level Eval/EvalValues/Exists entry points are thin
// wrappers that run over a throwaway state, preserving their original
// contracts (caller owns the result).

package pathengine

import (
	"strings"

	"repro/internal/jsondom"
	"repro/internal/jsonpath"
)

// EvalState is the reusable scratch arena for repeated path evaluation
// by one operator (one goroutine). The zero value is ready to use.
type EvalState[N any] struct {
	nodeFree [][]N
	scalFree [][]jsondom.Scalar
	gets     int64
	reuses   int64
}

// Reuse reports how many scratch-buffer checkouts the state has served
// and how many were satisfied from the freelist (arena reuse hits).
func (st *EvalState[N]) Reuse() (gets, hits int64) { return st.gets, st.reuses }

func (st *EvalState[N]) getNodes() []N {
	st.gets++
	if n := len(st.nodeFree); n > 0 {
		s := st.nodeFree[n-1]
		st.nodeFree = st.nodeFree[:n-1]
		st.reuses++
		return s
	}
	return make([]N, 0, 8)
}

// PutNodes returns a state-owned node slice to the freelist. The slice
// must not be used afterwards.
func (st *EvalState[N]) PutNodes(s []N) {
	if cap(s) == 0 {
		return
	}
	st.nodeFree = append(st.nodeFree, s[:0])
}

func (st *EvalState[N]) getScalars() []jsondom.Scalar {
	st.gets++
	if n := len(st.scalFree); n > 0 {
		s := st.scalFree[n-1]
		st.scalFree = st.scalFree[:n-1]
		st.reuses++
		return s
	}
	return make([]jsondom.Scalar, 0, 4)
}

func (st *EvalState[N]) putScalars(s []jsondom.Scalar) {
	if cap(s) == 0 {
		return
	}
	st.scalFree = append(st.scalFree, s[:0])
}

// Eval evaluates the compiled path against root and returns the
// resulting node sequence in document order. The returned slice is
// state-owned scratch — see the ownership rules in the file comment.
func (st *EvalState[N]) Eval(t Tree[N], root N, c *Compiled) []N {
	cur := st.getNodes()
	cur = append(cur, root)
	for i := range c.steps {
		if len(cur) == 0 {
			break
		}
		cur = st.evalStep(t, root, cur, c, i)
	}
	return cur
}

// Exists reports whether the path yields at least one item, using the
// state's scratch buffers.
func (st *EvalState[N]) Exists(t Tree[N], root N, c *Compiled) bool {
	res := st.Eval(t, root, c)
	ok := len(res) > 0
	st.PutNodes(res)
	return ok
}

// evalStep maps the current node sequence through step idx. It consumes
// cur (returning it to the freelist) and returns a fresh state-owned
// sequence.
func (st *EvalState[N]) evalStep(t Tree[N], root N, cur []N, c *Compiled, idx int) []N {
	step := &c.steps[idx]
	lax := c.Path.Lax
	next := st.getNodes()
	switch raw := step.raw.(type) {
	case jsonpath.FieldStep:
		for _, n := range cur {
			next = fieldInto(t, n, step.field, lax, next)
		}
	case jsonpath.WildcardStep:
		for _, n := range cur {
			next = wildcardInto(t, n, lax, next)
		}
	case jsonpath.ArrayStep:
		for _, n := range cur {
			next = arrayInto(t, n, raw, lax, next)
		}
	case jsonpath.DescendantStep:
		for _, n := range cur {
			next = descendantsInto(t, n, step.field, next)
		}
	case jsonpath.FilterStep:
		for _, n := range cur {
			if lax && !raw.NoUnwrap && t.Kind(n) == jsondom.KindArray {
				// lax mode unwraps arrays before applying the predicate
				cnt := t.Len(n)
				for i := 0; i < cnt; i++ {
					child, ok := t.Elem(n, i)
					if !ok {
						break
					}
					if st.evalPred(t, root, child, step.filter) {
						next = append(next, child)
					}
				}
				continue
			}
			if st.evalPred(t, root, n, step.filter) {
				next = append(next, n)
			}
		}
	}
	st.PutNodes(cur)
	return next
}

// fieldInto appends the field-step results for one node. Array
// unwrapping iterates by index — no per-node closure.
func fieldInto[N any](t Tree[N], n N, f *CompiledField, lax bool, out []N) []N {
	switch t.Kind(n) {
	case jsondom.KindObject:
		if v, ok := t.Field(n, f); ok {
			out = append(out, v)
		}
	case jsondom.KindArray:
		if !lax {
			return out
		}
		// lax: unwrap one array level
		cnt := t.Len(n)
		for i := 0; i < cnt; i++ {
			child, ok := t.Elem(n, i)
			if !ok {
				break
			}
			if t.Kind(child) == jsondom.KindObject {
				if v, ok := t.Field(child, f); ok {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

func wildcardInto[N any](t Tree[N], n N, lax bool, out []N) []N {
	switch t.Kind(n) {
	case jsondom.KindObject:
		cnt := t.ChildCount(n)
		for i := 0; i < cnt; i++ {
			_, _, child, ok := t.ChildAt(n, i)
			if !ok {
				break
			}
			out = append(out, child)
		}
	case jsondom.KindArray:
		if !lax {
			return out
		}
		cnt := t.Len(n)
		for i := 0; i < cnt; i++ {
			elem, ok := t.Elem(n, i)
			if !ok {
				break
			}
			if t.Kind(elem) != jsondom.KindObject {
				continue
			}
			ccnt := t.ChildCount(elem)
			for j := 0; j < ccnt; j++ {
				_, _, child, ok := t.ChildAt(elem, j)
				if !ok {
					break
				}
				out = append(out, child)
			}
		}
	}
	return out
}

func arrayInto[N any](t Tree[N], n N, step jsonpath.ArrayStep, lax bool, out []N) []N {
	if t.Kind(n) != jsondom.KindArray {
		if !lax {
			return out
		}
		// lax: wrap the item as a singleton array
		if step.Wildcard || selectsZero(step.Subs, 1) {
			out = append(out, n)
		}
		return out
	}
	length := t.Len(n)
	if step.Wildcard {
		for i := 0; i < length; i++ {
			child, ok := t.Elem(n, i)
			if !ok {
				break
			}
			out = append(out, child)
		}
		return out
	}
	for _, sub := range step.Subs {
		from := resolveIndex(sub.From, length)
		to := from
		if sub.IsRange {
			to = resolveIndex(sub.To, length)
		}
		for i := from; i <= to; i++ {
			if v, ok := t.Elem(n, i); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func descendantsInto[N any](t Tree[N], n N, f *CompiledField, out []N) []N {
	switch t.Kind(n) {
	case jsondom.KindObject:
		cnt := t.ChildCount(n)
		for i := 0; i < cnt; i++ {
			name, _, child, ok := t.ChildAt(n, i)
			if !ok {
				break
			}
			if name == f.Name {
				out = append(out, child)
			}
			out = descendantsInto(t, child, f, out)
		}
	case jsondom.KindArray:
		cnt := t.Len(n)
		for i := 0; i < cnt; i++ {
			child, ok := t.Elem(n, i)
			if !ok {
				break
			}
			out = descendantsInto(t, child, f, out)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Predicates

func (st *EvalState[N]) evalPred(t Tree[N], root, ctx N, p *compiledPred) bool {
	switch p.raw.(type) {
	case jsonpath.AndPred:
		return st.evalPred(t, root, ctx, p.kids[0]) && st.evalPred(t, root, ctx, p.kids[1])
	case jsonpath.OrPred:
		if p.eqLits != nil {
			return st.evalEqList(t, root, ctx, p)
		}
		return st.evalPred(t, root, ctx, p.kids[0]) || st.evalPred(t, root, ctx, p.kids[1])
	case jsonpath.NotPred:
		return !st.evalPred(t, root, ctx, p.kids[0])
	case jsonpath.ExistsPred:
		nodes := st.evalOperandNodes(t, root, ctx, p.paths[0])
		ok := len(nodes) > 0
		st.PutNodes(nodes)
		return ok
	case jsonpath.CmpPred:
		raw := p.raw.(jsonpath.CmpPred)
		if l, lok, direct := directScalar(t, ctx, p.paths[0]); direct {
			if r, rok, direct := directScalar(t, ctx, p.paths[1]); direct {
				return lok && rok && compareRaw(l, raw.Op, r)
			}
		}
		left := st.operandScalars(t, root, ctx, p.paths[0])
		right := st.operandScalars(t, root, ctx, p.paths[1])
		// existential semantics: true if any pair satisfies the operator
		res := false
	pairs:
		for _, l := range left {
			for _, r := range right {
				if compareRaw(l, raw.Op, r) {
					res = true
					break pairs
				}
			}
		}
		st.putScalars(right)
		st.putScalars(left)
		return res
	}
	return false
}

func (st *EvalState[N]) evalOperandNodes(t Tree[N], root, ctx N, o *compiledOpnd) []N {
	base := ctx
	if o.root {
		base = root
	}
	return st.Eval(t, base, o.path)
}

// evalEqList evaluates an IN-list-shaped '||' chain (see eqList): true
// if any item of the operand's sequence equals any of the literals.
func (st *EvalState[N]) evalEqList(t Tree[N], root, ctx N, p *compiledPred) bool {
	if s, ok, direct := directScalar(t, ctx, p.paths[0]); direct {
		return ok && anyEqual(s, p.eqLits)
	}
	vals := st.operandScalars(t, root, ctx, p.paths[0])
	res := false
	for _, s := range vals {
		if anyEqual(s, p.eqLits) {
			res = true
			break
		}
	}
	st.putScalars(vals)
	return res
}

func anyEqual(s jsondom.Scalar, lits []jsondom.Scalar) bool {
	for _, l := range lits {
		if compareRaw(s, jsonpath.OpEq, l) {
			return true
		}
	}
	return false
}

// directScalar reads an operand that is a literal, '@', or a plain
// '@'-relative field chain without building its node sequence: it
// navigates the chain (EvalFieldChain) and reads the scalar it lands
// on. ok=false means the sequence is empty (a missing field, or a
// scalar that does not convert). direct=false means the operand needs
// the generic path: it is '$'-anchored, not a field chain, crosses an
// array (lax unwrapping), or lands on a container.
func directScalar[N any](t Tree[N], ctx N, o *compiledOpnd) (s jsondom.Scalar, ok, direct bool) {
	if o.path == nil {
		return o.litScalar, true, true
	}
	if o.root {
		return s, false, false
	}
	n, found, applicable := EvalFieldChain(t, ctx, o.path)
	if !applicable {
		return s, false, false
	}
	if !found {
		return s, false, true
	}
	s, scalar := t.ScalarRaw(n)
	if !scalar {
		return s, false, false
	}
	if o.conv != jsonpath.ConvNone {
		s, ok = Convert(s, o.conv)
		return s, ok, true
	}
	return s, true, true
}

// operandScalars collects an operand's value sequence as unboxed
// scalars in a state-owned buffer, converted when the operand carries
// a conversion.
func (st *EvalState[N]) operandScalars(t Tree[N], root, ctx N, o *compiledOpnd) []jsondom.Scalar {
	out := st.getScalars()
	if o.path == nil {
		return append(out, o.litScalar)
	}
	nodes := st.evalOperandNodes(t, root, ctx, o)
	for _, n := range nodes {
		if s, ok := t.ScalarRaw(n); ok {
			out = appendConverted(out, s, o.conv)
		} else if t.Kind(n) == jsondom.KindArray && o.path.Path.Lax {
			// lax: unwrap array of scalars for comparison
			cnt := t.Len(n)
			for i := 0; i < cnt; i++ {
				child, ok := t.Elem(n, i)
				if !ok {
					break
				}
				if s, ok := t.ScalarRaw(child); ok {
					out = appendConverted(out, s, o.conv)
				}
			}
		}
	}
	st.PutNodes(nodes)
	return out
}

func appendConverted(out []jsondom.Scalar, s jsondom.Scalar, c jsonpath.Conversion) []jsondom.Scalar {
	if c == jsonpath.ConvNone {
		return append(out, s)
	}
	if s, ok := Convert(s, c); ok {
		return append(out, s)
	}
	return out
}

// compareRaw applies a comparison operator to unboxed scalars with
// exactly the semantics the boxed compare had: strings-only prefix and
// substring operators, float-based numeric ordering, and the SQL/JSON
// null rules (== and != are defined across kinds when a side is null).
func compareRaw(l jsondom.Scalar, op jsonpath.CmpOp, r jsondom.Scalar) bool {
	switch op {
	case jsonpath.OpStartsWith, jsonpath.OpHasSubstring:
		if l.K != jsondom.KindString || r.K != jsondom.KindString {
			return false
		}
		if op == jsonpath.OpStartsWith {
			return strings.HasPrefix(l.Str, r.Str)
		}
		return strings.Contains(l.Str, r.Str)
	}
	cmp, ok := jsondom.CompareScalars(l, r)
	if !ok {
		if l.K == jsondom.KindNull || r.K == jsondom.KindNull {
			eq := l.K == r.K
			switch op {
			case jsonpath.OpEq:
				return eq
			case jsonpath.OpNe:
				return !eq
			}
		}
		return false
	}
	switch op {
	case jsonpath.OpEq:
		return cmp == 0
	case jsonpath.OpNe:
		return cmp != 0
	case jsonpath.OpLt:
		return cmp < 0
	case jsonpath.OpLe:
		return cmp <= 0
	case jsonpath.OpGt:
		return cmp > 0
	case jsonpath.OpGe:
		return cmp >= 0
	}
	return false
}
