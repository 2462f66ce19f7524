// Binder: the per-operator document binder behind every SQL/JSON
// operator.
//
// A one-shot Document (FromDatum) pays per datum: the wrapper, an OSON
// Doc, an OsonTree, and the per-step node slices of path evaluation.
// A Binder owns all of that and re-points it at each datum an operator
// feeds it, so in steady state binding an OSON document and running
// JSON_VALUE / JSON_EXISTS over it allocates nothing beyond the boxed
// result. JSON_TABLE expansion (ExpandState) and the scalar operators
// in sqlengine share this one type.
//
// Re-binding the OSON buffer bound last (same backing array, same
// length) reuses its parse: several operators evaluated over one row's
// document — NOBENCH Q4's four predicates — parse it once. Datums are
// immutable store encodings, and the Binder keeps the last buffer
// reachable, so an equal key can only name the same bytes.
//
// Ownership rules:
//
//   - The Document returned by Bind is Binder-owned and valid until the
//     next Bind. Values the operators return never alias the Binder:
//     OSON-backed strings and numbers alias the datum buffer itself.
//   - A Binder serves one goroutine. Operators build one per evaluation
//     context, and parallel workers build their own contexts.

package sqljson

import (
	"repro/internal/jsondom"
	"repro/internal/oson"
	"repro/internal/pathengine"
)

// scratch is the navigation and path-evaluation scratch of a document.
type scratch struct {
	tree pathengine.OsonTree
	ost  pathengine.EvalState[oson.NodeAddr]
	dst  pathengine.EvalState[jsondom.Value]
}

// evalOson evaluates c over the scratch tree's document and
// materializes at most limit (0: all) results.
func (sc *scratch) evalOson(c *pathengine.Compiled, limit int) ([]jsondom.Value, error) {
	nodes := sc.ost.Eval(&sc.tree, sc.tree.Doc.Root(), c)
	defer sc.ost.PutNodes(nodes)
	if limit > 0 && len(nodes) > limit {
		nodes = nodes[:limit]
	}
	out := make([]jsondom.Value, 0, len(nodes))
	for _, n := range nodes {
		v, err := sc.tree.Materialize(n)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if err := sc.tree.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Binder binds a stream of document datums, one at a time, into reused
// parse and evaluation scratch. The zero value is ready to use; a
// Binder must not be copied after first use.
type Binder struct {
	d   Document
	sc  scratch
	doc oson.Doc
	// key identifies the buffer parsed into doc (its backing array and
	// length); nil when doc holds no valid parse.
	key    *byte
	keyLen int
	// parses counts OSON buffers parsed into doc; re-binds of the
	// buffer bound last are not counted.
	parses int64
}

// Bind points the binder at one document datum and returns it as a
// Binder-owned Document, valid until the next Bind. Encodings are read
// as by FromDatum; OSON buffers parse into the reused Doc, skipping the
// parse when the buffer is the one bound last.
func (b *Binder) Bind(v jsondom.Value) (*Document, error) {
	if t, ok := v.(jsondom.Binary); ok && isOson(t) {
		if p := &t[0]; p != b.key || len(t) != b.keyLen {
			b.key = nil
			if err := oson.ParseInto(&b.doc, t); err != nil {
				return nil, err
			}
			b.key, b.keyLen = p, len(t)
			b.parses++
		}
		b.d = Document{enc: EncOSON, od: &b.doc}
	} else if err := b.d.set(v); err != nil {
		return nil, err
	}
	b.d.sc = &b.sc
	b.sc.tree.Reset(b.d.od)
	return &b.d, nil
}
