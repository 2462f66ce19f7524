// Package pathengine evaluates SQL/JSON path expressions (§5.1).
//
// Two execution strategies mirror the paper:
//
//   - a DOM engine generic over a Tree backend. The jsondom backend
//     walks materialized trees; the OSON backend walks serialized OSON
//     bytes directly, using node addresses (byte offsets) in lieu of
//     machine pointers and binary search over sorted field ids.
//   - a streaming engine over jsontext parser events, which matches
//     field names on the raw key bytes and skips unselected values
//     without materializing them. It streams a path's leading field and
//     subscript steps; at the first step that cannot stream (a filter,
//     a descendant or wildcard step, a 'last' subscript) it builds a
//     DOM of only the subtree the prefix reached and hands the rest of
//     the path to the DOM engine. A filter with a '$'-anchored operand
//     needs the root, so such a path builds the whole document — the
//     cost the paper attributes to text processing.
//
// Compiled paths precompute field-name hashes at "query compile time"
// so per-document field-id resolution is a binary search plus the
// single-row look-back cache (§4.2.1).
package pathengine

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/jsondom"
	"repro/internal/jsonpath"
	"repro/internal/jsontext"
	"repro/internal/oson"
)

// Tree abstracts a JSON tree for the DOM engine. N is the node handle:
// jsondom.Value for materialized trees, oson.NodeAddr for OSON buffers.
type Tree[N any] interface {
	// Kind returns the node type.
	Kind(n N) jsondom.Kind
	// Field returns the named member of an object node.
	Field(n N, f *CompiledField) (N, bool)
	// Elem returns the i-th element of an array node.
	Elem(n N, i int) (N, bool)
	// Len returns the element count of an array node (0 otherwise).
	Len(n N) int
	// Children invokes fn for each child of a container in order, with
	// the field name for object members; it stops early if fn returns
	// false.
	Children(n N, fn func(name string, hasName bool, child N) bool)
	// Scalar decodes a leaf node (ok=false for containers).
	Scalar(n N) (jsondom.Value, bool)
	// ScalarRaw decodes a leaf node into the unboxed representation
	// (ok=false for containers). Payloads may alias backend storage per
	// the jsondom.Scalar contract.
	ScalarRaw(n N) (jsondom.Scalar, bool)
	// ChildCount returns the number of children of a container node
	// (object members or array elements; 0 otherwise).
	ChildCount(n N) int
	// ChildAt returns the i-th child of a container node, with the
	// member name for objects. Indexed access lets the evaluator iterate
	// children without the per-node callback closure Children needs.
	ChildAt(n N, i int) (name string, hasName bool, child N, ok bool)
	// Materialize converts the subtree to a jsondom value.
	Materialize(n N) (jsondom.Value, error)
}

// CompiledField carries a field name with its precomputed hash-based
// OSON reference.
type CompiledField struct {
	Name string
	Ref  *oson.FieldRef
}

// Compiled is a path prepared for repeated evaluation.
//
// Immutability contract: once Compile returns, a Compiled is never
// written again and may be shared freely — across goroutines, across
// executions of a cached plan, and across plans via the CompileText
// memo. The only mutable state reachable from it is each FieldRef's
// look-back slot (§4.2.1), which is an atomic.Pointer and safe under
// concurrent evaluation. Callers must not modify Path or any step
// after compilation.
type Compiled struct {
	Path  *jsonpath.Path
	steps []compiledStep
	// chain caches the compiled fields when every step is a plain
	// field step, enabling the allocation-free fast path.
	chain []*CompiledField
	// handoff is the index of the first step text evaluation runs on
	// the DOM engine rather than the event stream (see TextState).
	handoff int
}

type compiledStep struct {
	raw    jsonpath.Step
	field  *CompiledField // FieldStep / DescendantStep
	filter *compiledPred  // FilterStep
}

type compiledPred struct {
	raw   jsonpath.Predicate
	kids  []*compiledPred // And/Or/Not children
	paths []*compiledOpnd // comparison operands / exists paths
	// eqLits is set on an '||' chain of '==' comparisons of one operand
	// (paths[0]) with literals, the shape of an IN list: the operand
	// is read once and compared with each literal.
	eqLits []jsondom.Scalar
}

type compiledOpnd struct {
	path    *Compiled
	root    bool // '$'-anchored (vs '@')
	conv    jsonpath.Conversion
	literal jsondom.Value
	// litScalar is the unboxed literal for raw comparison. A
	// (grammar-unreachable) non-scalar literal is marked with
	// K=KindObject so kind checks behave like the boxed path did.
	litScalar jsondom.Scalar
}

// Compile prepares a parsed path for evaluation.
func Compile(p *jsonpath.Path) *Compiled {
	c := &Compiled{Path: p}
	for _, s := range p.Steps {
		cs := compiledStep{raw: s}
		switch t := s.(type) {
		case jsonpath.FieldStep:
			cs.field = &CompiledField{Name: t.Name, Ref: oson.NewFieldRef(t.Name)}
		case jsonpath.DescendantStep:
			cs.field = &CompiledField{Name: t.Name, Ref: oson.NewFieldRef(t.Name)}
		case jsonpath.FilterStep:
			cs.filter = compilePred(t.Pred)
		}
		c.steps = append(c.steps, cs)
	}
	chain := make([]*CompiledField, 0, len(c.steps))
	for _, cs := range c.steps {
		if _, ok := cs.raw.(jsonpath.FieldStep); !ok {
			chain = nil
			break
		}
		chain = append(chain, cs.field)
	}
	c.chain = chain
	c.handoff = c.handoffStep()
	return c
}

// EvalFieldChain navigates a pure field-chain path iteratively with no
// allocations. applicable=false means the path is not a plain field
// chain, or lax array unwrapping would be required — callers must then
// fall back to Eval. found=false (with applicable=true) means the path
// definitively selects nothing.
func EvalFieldChain[N any](t Tree[N], root N, c *Compiled) (node N, found, applicable bool) {
	if c.chain == nil {
		var zero N
		return zero, false, false
	}
	node = root
	for _, f := range c.chain {
		switch t.Kind(node) {
		case jsondom.KindObject:
			next, ok := t.Field(node, f)
			if !ok {
				var zero N
				return zero, false, true
			}
			node = next
		case jsondom.KindArray:
			// lax unwrap territory: defer to the general engine
			var zero N
			return zero, false, false
		default:
			var zero N
			return zero, false, true
		}
	}
	return node, true, true
}

// MustCompile parses and compiles a path, panicking on syntax errors.
func MustCompile(text string) *Compiled {
	return Compile(jsonpath.MustParse(text))
}

// compileMemo caches CompileText results process-wide: the same path
// text recurs across every statement touching a collection, and a
// Compiled is immutable (see the type's contract), so one instance
// serves them all. Entries are counted approximately and the memo is
// reset when it exceeds compileMemoMax, bounding memory under
// adversarial path churn without locking the hit path.
var (
	compileMemo     atomic.Pointer[sync.Map] // path text -> *Compiled
	compileMemoSize atomic.Int64             // approximate entry count
)

func init() { compileMemo.Store(&sync.Map{}) }

// compileMemoMax bounds the memoized path count; a full memo is
// discarded wholesale rather than evicted entry-wise (the count and
// the swap are approximate, which only ever discards valid entries).
const compileMemoMax = 4096

// CompileText parses and compiles a path, memoizing successful
// results by text.
func CompileText(text string) (*Compiled, error) {
	m := compileMemo.Load()
	if c, ok := m.Load(text); ok {
		return c.(*Compiled), nil
	}
	p, err := jsonpath.Parse(text)
	if err != nil {
		return nil, err
	}
	c := Compile(p)
	if prev, loaded := m.LoadOrStore(text, c); loaded {
		return prev.(*Compiled), nil
	}
	if compileMemoSize.Add(1) > compileMemoMax {
		compileMemo.Store(&sync.Map{})
		compileMemoSize.Store(0)
	}
	return c, nil
}

func compilePred(p jsonpath.Predicate) *compiledPred {
	cp := &compiledPred{raw: p}
	switch t := p.(type) {
	case jsonpath.AndPred:
		cp.kids = []*compiledPred{compilePred(t.L), compilePred(t.R)}
	case jsonpath.OrPred:
		if opnd, lits, ok := eqList(t); ok {
			cp.paths = []*compiledOpnd{compileOperand(opnd)}
			cp.eqLits = lits
			return cp
		}
		cp.kids = []*compiledPred{compilePred(t.L), compilePred(t.R)}
	case jsonpath.NotPred:
		cp.kids = []*compiledPred{compilePred(t.P)}
	case jsonpath.ExistsPred:
		cp.paths = []*compiledOpnd{compileOperandPath(t.Path)}
	case jsonpath.CmpPred:
		cp.paths = []*compiledOpnd{compileOperand(t.Left), compileOperand(t.Right)}
	}
	return cp
}

// eqList recognizes an '||' chain whose every leaf compares the same
// path operand ('==') with a scalar literal. Disjunction of existential
// comparisons over one operand is the existential comparison of its
// sequence with any of the literals, so the chain evaluates as one.
func eqList(p jsonpath.OrPred) (jsonpath.PathOperand, []jsondom.Scalar, bool) {
	var opnd jsonpath.PathOperand
	var lits []jsondom.Scalar
	var walk func(jsonpath.Predicate) bool
	walk = func(q jsonpath.Predicate) bool {
		switch t := q.(type) {
		case jsonpath.OrPred:
			return walk(t.L) && walk(t.R)
		case jsonpath.CmpPred:
			l, ok := t.Left.(jsonpath.PathOperand)
			r, rok := t.Right.(jsonpath.LiteralOperand)
			if !ok || !rok || t.Op != jsonpath.OpEq {
				return false
			}
			s, ok := jsondom.ScalarOf(r.Value)
			if !ok {
				return false
			}
			if lits == nil {
				opnd = l
			} else if l.Conv != opnd.Conv || l.Path.Lax != opnd.Path.Lax || l.Path.Text != opnd.Path.Text {
				return false
			}
			lits = append(lits, s)
			return true
		}
		return false
	}
	if !walk(p) {
		return opnd, nil, false
	}
	return opnd, lits, true
}

func compileOperand(o jsonpath.Operand) *compiledOpnd {
	switch t := o.(type) {
	case jsonpath.PathOperand:
		op := compileOperandPath(t.Path)
		op.conv = t.Conv
		return op
	case jsonpath.LiteralOperand:
		op := &compiledOpnd{literal: t.Value}
		if s, ok := jsondom.ScalarOf(t.Value); ok {
			op.litScalar = s
		} else {
			op.litScalar = jsondom.Scalar{K: jsondom.KindObject}
		}
		return op
	}
	return nil
}

func compileOperandPath(p *jsonpath.Path) *compiledOpnd {
	return &compiledOpnd{path: Compile(p), root: p.IsRootRelative()}
}

// Convert applies a PathOperand conversion to one scalar; ok=false
// means the scalar converts to nothing (SQL NULL) and drops out of the
// operand's sequence. The conversions are those of a JSON_TABLE column
// of the matching type, which delegates to this function, so a
// converted prefilter comparison sees exactly the value the column
// would hold. Numbers pass through unchanged (doubles stay doubles:
// their comparison is the same float ordering either way).
func Convert(s jsondom.Scalar, c jsonpath.Conversion) (jsondom.Scalar, bool) {
	if s.K == jsondom.KindNull {
		return s, c == jsonpath.ConvNone
	}
	switch c {
	case jsonpath.ConvNumber:
		switch s.K {
		case jsondom.KindNumber, jsondom.KindDouble:
			return s, true
		case jsondom.KindString:
			n, err := jsondom.CanonNumber(s.Str)
			if err != nil {
				return jsondom.Scalar{}, false
			}
			return jsondom.Scalar{K: jsondom.KindNumber, Str: n}, true
		case jsondom.KindBool:
			if s.B {
				return jsondom.Scalar{K: jsondom.KindNumber, Str: "1"}, true
			}
			return jsondom.Scalar{K: jsondom.KindNumber, Str: "0"}, true
		}
		return jsondom.Scalar{}, false
	case jsonpath.ConvString:
		if s.K == jsondom.KindString {
			return s, true
		}
		return jsondom.Scalar{K: jsondom.KindString, Str: jsontext.SerializeString(s.Box())}, true
	}
	return s, true
}

// ---------------------------------------------------------------------------
// DOM engine

// Eval evaluates the compiled path against root and returns the
// resulting node sequence in document order. It runs over a throwaway
// EvalState, so the caller owns the returned slice; operators
// evaluating many documents should hold an EvalState and call its Eval
// to reuse the scratch buffers instead.
func Eval[N any](t Tree[N], root N, c *Compiled) []N {
	var st EvalState[N]
	res := st.Eval(t, root, c)
	if len(res) == 0 {
		return nil
	}
	return res
}

// EvalValues evaluates the path and materializes the results.
func EvalValues[N any](t Tree[N], root N, c *Compiled) ([]jsondom.Value, error) {
	nodes := Eval(t, root, c)
	out := make([]jsondom.Value, 0, len(nodes))
	for _, n := range nodes {
		v, err := t.Materialize(n)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Exists reports whether the path yields at least one item.
func Exists[N any](t Tree[N], root N, c *Compiled) bool {
	var st EvalState[N]
	return st.Exists(t, root, c)
}

// selectsZero reports whether any subscript resolves to position 0 for
// an array of the given length; used for lax singleton wrapping.
func selectsZero(subs []jsonpath.Subscript, length int) bool {
	for _, sub := range subs {
		from := resolveIndex(sub.From, length)
		to := from
		if sub.IsRange {
			to = resolveIndex(sub.To, length)
		}
		if from <= 0 && to >= 0 {
			return true
		}
	}
	return false
}

func resolveIndex(ix jsonpath.Index, length int) int {
	if ix.Last {
		return length - 1 - ix.Back
	}
	return ix.Pos
}

// ---------------------------------------------------------------------------
// jsondom backend

// DomTree is the Tree backend over materialized jsondom values.
type DomTree struct{}

// Dom is the shared DomTree instance.
var Dom DomTree

// Kind implements Tree.
func (DomTree) Kind(n jsondom.Value) jsondom.Kind { return n.Kind() }

// Field implements Tree.
func (DomTree) Field(n jsondom.Value, f *CompiledField) (jsondom.Value, bool) {
	o, ok := n.(*jsondom.Object)
	if !ok {
		return nil, false
	}
	return o.Get(f.Name)
}

// Elem implements Tree.
func (DomTree) Elem(n jsondom.Value, i int) (jsondom.Value, bool) {
	a, ok := n.(*jsondom.Array)
	if !ok || i < 0 || i >= a.Len() {
		return nil, false
	}
	return a.At(i), true
}

// Len implements Tree.
func (DomTree) Len(n jsondom.Value) int {
	if a, ok := n.(*jsondom.Array); ok {
		return a.Len()
	}
	return 0
}

// Children implements Tree.
func (DomTree) Children(n jsondom.Value, fn func(string, bool, jsondom.Value) bool) {
	switch t := n.(type) {
	case *jsondom.Object:
		for _, f := range t.Fields() {
			if !fn(f.Name, true, f.Value) {
				return
			}
		}
	case *jsondom.Array:
		for _, e := range t.Elems {
			if !fn("", false, e) {
				return
			}
		}
	}
}

// Scalar implements Tree.
func (DomTree) Scalar(n jsondom.Value) (jsondom.Value, bool) {
	if n.Kind().IsScalar() {
		return n, true
	}
	return nil, false
}

// ScalarRaw implements Tree.
func (DomTree) ScalarRaw(n jsondom.Value) (jsondom.Scalar, bool) {
	return jsondom.ScalarOf(n)
}

// ChildCount implements Tree.
func (DomTree) ChildCount(n jsondom.Value) int {
	switch t := n.(type) {
	case *jsondom.Object:
		return t.Len()
	case *jsondom.Array:
		return len(t.Elems)
	}
	return 0
}

// ChildAt implements Tree.
func (DomTree) ChildAt(n jsondom.Value, i int) (string, bool, jsondom.Value, bool) {
	switch t := n.(type) {
	case *jsondom.Object:
		fs := t.Fields()
		if i < 0 || i >= len(fs) {
			return "", false, nil, false
		}
		return fs[i].Name, true, fs[i].Value, true
	case *jsondom.Array:
		if i < 0 || i >= len(t.Elems) {
			return "", false, nil, false
		}
		return "", false, t.Elems[i], true
	}
	return "", false, nil, false
}

// Materialize implements Tree.
func (DomTree) Materialize(n jsondom.Value) (jsondom.Value, error) { return n, nil }

// ---------------------------------------------------------------------------
// OSON backend

// OsonTree is the Tree backend navigating OSON bytes directly; node
// handles are tree-segment byte offsets (§5.1).
type OsonTree struct {
	Doc *oson.Doc
	err error
}

// NewOsonTree wraps a parsed OSON document.
func NewOsonTree(d *oson.Doc) *OsonTree { return &OsonTree{Doc: d} }

// Reset repoints the tree at a new document and clears the sticky
// error, letting one pooled OsonTree instance serve a stream of
// documents without reallocating.
func (t *OsonTree) Reset(d *oson.Doc) {
	t.Doc = d
	t.err = nil
}

// Err returns the first navigation error encountered (corrupt buffers
// surface here rather than panicking mid-query).
func (t *OsonTree) Err() error { return t.err }

func (t *OsonTree) fail(err error) {
	if t.err == nil && err != nil {
		t.err = err
	}
}

// Kind implements Tree.
func (t *OsonTree) Kind(n oson.NodeAddr) jsondom.Kind {
	k, err := t.Doc.NodeKind(n)
	if err != nil {
		t.fail(err)
		return jsondom.KindNull
	}
	return k
}

// Field implements Tree using the compiled hash reference and the
// sorted-id binary search.
func (t *OsonTree) Field(n oson.NodeAddr, f *CompiledField) (oson.NodeAddr, bool) {
	id, ok := f.Ref.Resolve(t.Doc)
	if !ok {
		return 0, false
	}
	child, ok, err := t.Doc.GetFieldValue(n, id)
	if err != nil {
		t.fail(err)
		return 0, false
	}
	return child, ok
}

// Elem implements Tree.
func (t *OsonTree) Elem(n oson.NodeAddr, i int) (oson.NodeAddr, bool) {
	child, ok, err := t.Doc.GetArrayElement(n, i)
	if err != nil {
		t.fail(err)
		return 0, false
	}
	return child, ok
}

// Len implements Tree.
func (t *OsonTree) Len(n oson.NodeAddr) int {
	l, err := t.Doc.ArrayLen(n)
	if err != nil {
		return 0
	}
	return l
}

// Children implements Tree.
func (t *OsonTree) Children(n oson.NodeAddr, fn func(string, bool, oson.NodeAddr) bool) {
	k, err := t.Doc.NodeKind(n)
	if err != nil {
		t.fail(err)
		return
	}
	switch k {
	case jsondom.KindObject:
		cnt, err := t.Doc.ObjectLen(n)
		if err != nil {
			t.fail(err)
			return
		}
		for i := 0; i < cnt; i++ {
			id, child, err := t.Doc.ObjectEntry(n, i)
			if err != nil {
				t.fail(err)
				return
			}
			name, err := t.Doc.FieldName(id)
			if err != nil {
				t.fail(err)
				return
			}
			if !fn(name, true, child) {
				return
			}
		}
	case jsondom.KindArray:
		cnt, err := t.Doc.ArrayLen(n)
		if err != nil {
			t.fail(err)
			return
		}
		for i := 0; i < cnt; i++ {
			child, ok, err := t.Doc.GetArrayElement(n, i)
			if err != nil || !ok {
				t.fail(err)
				return
			}
			if !fn("", false, child) {
				return
			}
		}
	}
}

// Scalar implements Tree.
func (t *OsonTree) Scalar(n oson.NodeAddr) (jsondom.Value, bool) {
	v, err := t.Doc.Scalar(n)
	if err != nil {
		if !errors.Is(err, oson.ErrNotScalar) {
			t.fail(err)
		}
		return nil, false
	}
	return v, true
}

// ScalarRaw implements Tree: payloads alias the document's value
// segment, remaining valid for the life of the backing buffer.
func (t *OsonTree) ScalarRaw(n oson.NodeAddr) (jsondom.Scalar, bool) {
	s, err := t.Doc.ScalarRaw(n)
	if err != nil {
		if !errors.Is(err, oson.ErrNotScalar) {
			t.fail(err)
		}
		return jsondom.Scalar{}, false
	}
	return s, true
}

// ChildCount implements Tree.
func (t *OsonTree) ChildCount(n oson.NodeAddr) int {
	k, err := t.Doc.NodeKind(n)
	if err != nil {
		t.fail(err)
		return 0
	}
	var cnt int
	switch k {
	case jsondom.KindObject:
		cnt, err = t.Doc.ObjectLen(n)
	case jsondom.KindArray:
		cnt, err = t.Doc.ArrayLen(n)
	}
	if err != nil {
		t.fail(err)
		return 0
	}
	return cnt
}

// ChildAt implements Tree.
func (t *OsonTree) ChildAt(n oson.NodeAddr, i int) (string, bool, oson.NodeAddr, bool) {
	k, err := t.Doc.NodeKind(n)
	if err != nil {
		t.fail(err)
		return "", false, 0, false
	}
	switch k {
	case jsondom.KindObject:
		id, child, err := t.Doc.ObjectEntry(n, i)
		if err != nil {
			t.fail(err)
			return "", false, 0, false
		}
		name, err := t.Doc.FieldName(id)
		if err != nil {
			t.fail(err)
			return "", false, 0, false
		}
		return name, true, child, true
	case jsondom.KindArray:
		child, ok, err := t.Doc.GetArrayElement(n, i)
		if err != nil || !ok {
			t.fail(err)
			return "", false, 0, false
		}
		return "", false, child, true
	}
	return "", false, 0, false
}

// Materialize implements Tree.
func (t *OsonTree) Materialize(n oson.NodeAddr) (jsondom.Value, error) {
	return t.Doc.Decode(n)
}

// EvalOson evaluates a compiled path over OSON bytes and materializes
// the result values.
func EvalOson(d *oson.Doc, c *Compiled) ([]jsondom.Value, error) {
	t := NewOsonTree(d)
	vals, err := EvalValues[oson.NodeAddr](t, d.Root(), c)
	if err != nil {
		return nil, err
	}
	if t.Err() != nil {
		return nil, t.Err()
	}
	return vals, nil
}

// EvalDom evaluates a compiled path over a jsondom tree.
func EvalDom(root jsondom.Value, c *Compiled) []jsondom.Value {
	vals, _ := EvalValues[jsondom.Value](Dom, root, c)
	return vals
}

// ---------------------------------------------------------------------------
// Streaming engine over JSON text

// streamsStep reports whether the event-streaming engine evaluates step
// s: plain field steps, array wildcards, and array subscripts without
// 'last' references (which need the array's length up front) that
// select positions in ascending order, each at most once. The stream
// visits elements in document order, while the DOM engine yields them
// in subscript order, repeats included ($.a[1,0], $.a[0,0]); only
// ascending, non-overlapping subscripts give the same sequence.
func streamsStep(s jsonpath.Step) bool {
	switch t := s.(type) {
	case jsonpath.FieldStep:
		return true
	case jsonpath.ArrayStep:
		prev := -1 // last position selected so far
		for _, sub := range t.Subs {
			if sub.From.Last || (sub.IsRange && sub.To.Last) {
				return false
			}
			from, to := sub.From.Pos, sub.From.Pos
			if sub.IsRange {
				to = sub.To.Pos
			}
			if to < from {
				continue // an empty range selects nothing
			}
			if from <= prev {
				return false
			}
			prev = to
		}
		return true
	}
	return false
}

// rootAnchored reports whether a filter predicate has a '$'-anchored
// operand, which the DOM engine resolves against the document root.
// Operand paths nested inside such an operand see their own base as
// '$', so only the predicate's own operands are inspected.
func rootAnchored(p *compiledPred) bool {
	for _, k := range p.kids {
		if rootAnchored(k) {
			return true
		}
	}
	for _, o := range p.paths {
		if o.root {
			return true
		}
	}
	return false
}

// handoffStep returns the index of the first step the streaming engine
// hands to the DOM engine (len(c.steps) when every step streams). A
// filter with a '$'-anchored operand needs the whole document, so such
// a path hands off at step 0.
func (c *Compiled) handoffStep() int {
	for _, s := range c.steps {
		if s.filter != nil && rootAnchored(s.filter) {
			return 0
		}
	}
	for i, s := range c.steps {
		if !streamsStep(s.raw) {
			return i
		}
	}
	return len(c.steps)
}

// Streamable reports whether the event-streaming engine evaluates the
// whole path without materializing any subtree.
func (c *Compiled) Streamable() bool { return c.handoff == len(c.steps) }

// TextState is the reusable scratch of path evaluation over JSON text:
// the streaming parser, the result sequence, and the DOM-engine state
// for the steps that do not stream. Evaluation streams the path's
// leading field and subscript steps over parser events; at the first
// step that cannot stream (a filter, a descendant or wildcard step, a
// 'last' subscript) it materializes only the subtree the prefix
// reached and runs the remaining steps over it with the DOM engine. In
// steady state an evaluation allocates only the values it returns and
// the subtrees it hands off.
//
// The zero value is ready to use. A TextState serves one goroutine, and
// the result slice it returns is valid until its next evaluation.
type TextState struct {
	p     jsontext.Parser
	dom   EvalState[jsondom.Value]
	sst   EvalState[jsondom.Scalar] // for handed-off scalars
	out   []jsondom.Value
	c     *Compiled
	limit int
	// exists counts matches at the end of the path as nil entries of
	// out instead of materializing them
	exists bool
}

// DOM returns the state's DOM-engine scratch, which callers also use to
// evaluate paths over trees they materialized themselves.
func (ts *TextState) DOM() *EvalState[jsondom.Value] { return &ts.dom }

// Eval evaluates c over the JSON text s and returns the matches in
// document order, at most limit of them when limit > 0. The returned
// slice is state-owned; the values in it may be substrings of s.
func (ts *TextState) Eval(s string, c *Compiled, limit int) ([]jsondom.Value, error) {
	ts.p.ResetString(s)
	return ts.run(c, limit, false)
}

// Exists reports whether c selects anything in the JSON text s,
// materializing no match the path's last step selects.
func (ts *TextState) Exists(s string, c *Compiled) (bool, error) {
	ts.p.ResetString(s)
	res, err := ts.run(c, 1, true)
	return len(res) > 0, err
}

// EvalText evaluates the path over JSON text (see TextState). limit > 0
// stops after that many results. The caller owns the result.
func EvalText(text []byte, c *Compiled, limit int) ([]jsondom.Value, error) {
	var ts TextState
	ts.p.Reset(text)
	vals, err := ts.run(c, limit, false)
	if len(vals) == 0 {
		return nil, err
	}
	return vals, err
}

// ExistsText reports whether the path matches anything in the text.
func ExistsText(text []byte, c *Compiled) (bool, error) {
	var ts TextState
	ts.p.Reset(text)
	res, err := ts.run(c, 1, true)
	return len(res) > 0, err
}

// run evaluates c over the document the parser was reset to. The whole
// document is always scanned, so malformed text is an error whatever
// the path selects.
func (ts *TextState) run(c *Compiled, limit int, exists bool) ([]jsondom.Value, error) {
	clear(ts.out)
	ts.out, ts.c, ts.limit, ts.exists = ts.out[:0], c, limit, exists
	ev, err := ts.p.Next()
	if err == nil {
		err = ts.stream(ev, 0)
	}
	if err == nil {
		_, err = ts.p.Next() // EOF, or an error for trailing data
	}
	ts.c = nil
	if err != nil {
		return nil, err
	}
	return ts.out, nil
}

// full reports whether the result sequence has reached the limit.
func (ts *TextState) full() bool { return ts.limit > 0 && len(ts.out) >= ts.limit }

// stream matches steps[idx:] against the value whose first event is ev;
// the parser is positioned immediately after ev, and the value is
// consumed whatever it matches. Scalars are read with their text when
// a step may select them, and everything else in NoStrings mode.
func (ts *TextState) stream(ev jsontext.Event, idx int) error {
	p := &ts.p
	if ts.full() {
		return p.SkipValue(ev)
	}
	c := ts.c
	if idx == c.handoff {
		return ts.handOff(ev, idx)
	}
	lax := c.Path.Lax
	switch step := c.steps[idx].raw.(type) {
	case jsonpath.FieldStep:
		switch ev.Kind {
		case jsontext.EvObjectStart:
			// last occurrence wins, as in the DOM and OSON: a repeated key
			// drops the results of the earlier occurrences
			mark := -1
			for {
				p.NoStrings = true
				kev, err := p.Next()
				if err != nil {
					return err
				}
				if kev.Kind == jsontext.EvObjectEnd {
					return nil
				}
				hit := p.SpanEquals(step.Name)
				if hit {
					if mark < 0 {
						mark = len(ts.out)
					} else {
						clear(ts.out[mark:])
						ts.out = ts.out[:mark]
					}
				}
				p.NoStrings = !hit
				vev, err := p.Next()
				if err != nil {
					return err
				}
				if hit {
					err = ts.stream(vev, idx+1)
				} else {
					err = p.SkipValue(vev)
				}
				if err != nil {
					return err
				}
			}
		case jsontext.EvArrayStart:
			if !lax {
				return p.SkipValue(ev)
			}
			for {
				p.NoStrings = true
				eev, err := p.Next()
				if err != nil {
					return err
				}
				if eev.Kind == jsontext.EvArrayEnd {
					return nil
				}
				// lax unwrap is one level deep: the field step applies to
				// object elements only; other elements are skipped
				if eev.Kind == jsontext.EvObjectStart {
					err = ts.stream(eev, idx)
				} else {
					err = p.SkipValue(eev)
				}
				if err != nil {
					return err
				}
			}
		default:
			return nil // scalar: no match, already consumed
		}
	case jsonpath.ArrayStep:
		if ev.Kind != jsontext.EvArrayStart {
			if lax && (step.Wildcard || selectsZero(step.Subs, 1)) {
				return ts.stream(ev, idx+1)
			}
			return p.SkipValue(ev)
		}
		for i := 0; ; i++ {
			sel := step.Wildcard || indexSelected(step.Subs, i)
			p.NoStrings = !sel
			eev, err := p.Next()
			if err != nil {
				return err
			}
			if eev.Kind == jsontext.EvArrayEnd {
				return nil
			}
			if sel {
				err = ts.stream(eev, idx+1)
			} else {
				err = p.SkipValue(eev)
			}
			if err != nil {
				return err
			}
		}
	}
	return p.SkipValue(ev)
}

// handOff runs steps[idx:] with the DOM engine over the value whose
// first event is ev: a scalar as an unboxed jsondom.Scalar, anything
// else materialized. At idx 0 the value is the document root, which
// '$'-anchored filter operands resolve against. An existence test
// materializes no value the last step selects.
func (ts *TextState) handOff(ev jsontext.Event, idx int) error {
	if idx == len(ts.c.steps) && ts.exists {
		ts.out = append(ts.out, nil)
		return ts.p.SkipValue(ev)
	}
	if s, ok, err := eventScalar(ev); ok || err != nil {
		if err == nil {
			handOffSteps[jsondom.Scalar](ts, scalarTree{}, &ts.sst, s, idx)
		}
		return err
	}
	v, err := ts.p.ReadValue(ev)
	if err == nil {
		handOffSteps[jsondom.Value](ts, Dom, &ts.dom, v, idx)
	}
	return err
}

// handOffSteps applies steps[idx:] to the handed-off node v and appends
// the results.
func handOffSteps[N any](ts *TextState, t Tree[N], st *EvalState[N], v N, idx int) {
	cur := append(st.getNodes(), v)
	for i := idx; i < len(ts.c.steps) && len(cur) > 0; i++ {
		cur = st.evalStep(t, v, cur, ts.c, i)
	}
	for _, n := range cur {
		if ts.full() {
			break
		}
		var m jsondom.Value
		if !ts.exists {
			m, _ = t.Materialize(n)
		}
		ts.out = append(ts.out, m)
	}
	st.PutNodes(cur)
}

// eventScalar returns the scalar a scalar event carries (ok=false for
// container events).
func eventScalar(ev jsontext.Event) (s jsondom.Scalar, ok bool, err error) {
	switch ev.Kind {
	case jsontext.EvNull:
		return jsondom.Scalar{K: jsondom.KindNull}, true, nil
	case jsontext.EvBool:
		return jsondom.Scalar{K: jsondom.KindBool, B: ev.Bool}, true, nil
	case jsontext.EvString:
		return jsondom.Scalar{K: jsondom.KindString, Str: ev.Str}, true, nil
	case jsontext.EvNumber:
		n, err := jsondom.N(ev.Str)
		return jsondom.Scalar{K: jsondom.KindNumber, Str: string(n)}, err == nil, err
	}
	return s, false, nil
}

// scalarTree is the Tree backend over a lone unboxed scalar: a scalar
// the streaming prefix hands off (an array element a filter tests, say)
// runs the remaining steps without being boxed.
type scalarTree struct{}

// Kind implements Tree.
func (scalarTree) Kind(n jsondom.Scalar) jsondom.Kind { return n.K }

// Field implements Tree: a scalar has no members.
func (scalarTree) Field(jsondom.Scalar, *CompiledField) (jsondom.Scalar, bool) {
	return jsondom.Scalar{}, false
}

// Elem implements Tree: a scalar has no elements.
func (scalarTree) Elem(jsondom.Scalar, int) (jsondom.Scalar, bool) {
	return jsondom.Scalar{}, false
}

// Len implements Tree.
func (scalarTree) Len(jsondom.Scalar) int { return 0 }

// Children implements Tree.
func (scalarTree) Children(jsondom.Scalar, func(string, bool, jsondom.Scalar) bool) {}

// Scalar implements Tree.
func (scalarTree) Scalar(n jsondom.Scalar) (jsondom.Value, bool) { return n.Box(), true }

// ScalarRaw implements Tree.
func (scalarTree) ScalarRaw(n jsondom.Scalar) (jsondom.Scalar, bool) { return n, true }

// ChildCount implements Tree.
func (scalarTree) ChildCount(jsondom.Scalar) int { return 0 }

// ChildAt implements Tree.
func (scalarTree) ChildAt(jsondom.Scalar, int) (string, bool, jsondom.Scalar, bool) {
	return "", false, jsondom.Scalar{}, false
}

// Materialize implements Tree.
func (scalarTree) Materialize(n jsondom.Scalar) (jsondom.Value, error) { return n.Box(), nil }

// indexSelected reports whether absolute position i is selected by the
// subscripts (which are guaranteed not to use 'last' when streaming).
func indexSelected(subs []jsonpath.Subscript, i int) bool {
	for _, sub := range subs {
		from := sub.From.Pos
		to := from
		if sub.IsRange {
			to = sub.To.Pos
		}
		if i >= from && i <= to {
			return true
		}
	}
	return false
}
