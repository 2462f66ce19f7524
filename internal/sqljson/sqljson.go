// Package sqljson implements the SQL/JSON operators of [21] used
// throughout the paper: JSON_VALUE, JSON_QUERY, JSON_EXISTS,
// JSON_TEXTCONTAINS and the JSON_TABLE row source (§3.3, §5.1).
//
// Operators accept documents in any of the three storage encodings of
// §6.3 — JSON text, BSON, OSON — through the Document wrapper, which
// picks the matching evaluation strategy:
//
//   - JSON text: the streaming path engine, which materializes only
//     the subtree a path's streamable prefix reaches (the whole
//     document for JSON_TABLE, which touches many paths per document);
//   - OSON: direct navigation over the serialized bytes, no
//     materialization;
//   - BSON: decoded to a DOM (its serial format has no random access),
//     matching the paper's characterization in §4.1.
package sqljson

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bson"
	"repro/internal/jsondom"
	"repro/internal/jsonpath"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/pathengine"
)

// Encoding identifies the physical format of a document.
type Encoding uint8

// Document encodings.
const (
	EncText Encoding = iota
	EncBSON
	EncOSON
	EncDOM // already materialized
)

// String names the encoding as used in benchmark and EXPLAIN output.
func (e Encoding) String() string {
	switch e {
	case EncText:
		return "json-text"
	case EncBSON:
		return "bson"
	case EncOSON:
		return "oson"
	case EncDOM:
		return "dom"
	}
	return "unknown"
}

// ErrNotJSON is returned when a datum cannot be interpreted as a JSON
// document.
var ErrNotJSON = errors.New("sqljson: value is not a JSON document")

// Document wraps one JSON document in any supported encoding.
type Document struct {
	enc Encoding
	// text is the JSON text of an EncText document: the datum string
	// itself, read in place, so values evaluated from it may be
	// substrings of it.
	text string
	od   *oson.Doc
	dom  jsondom.Value // cache for text/bson materialization
	// sc is the evaluation scratch: a Binder's, for a document bound
	// through one, or built on first use for a one-shot document.
	sc *scratch
}

// FromDatum interprets a SQL value as a JSON document: strings hold
// JSON text, binary values hold OSON (by magic) or BSON. The document
// is one-shot; operators evaluating a stream of datums bind them
// through a Binder instead, which reuses the parse and navigation
// scratch.
func FromDatum(v jsondom.Value) (*Document, error) {
	d := new(Document)
	if err := d.set(v); err != nil {
		return nil, err
	}
	return d, nil
}

// set points d at datum v, replacing all of d. OSON buffers parse
// into a fresh Doc here; a Binder intercepts them first to parse into
// its reused one.
func (d *Document) set(v jsondom.Value) error {
	switch t := v.(type) {
	case jsondom.String:
		*d = Document{enc: EncText, text: string(t)}
		return nil
	case jsondom.Binary:
		if isOson(t) {
			od, err := oson.Parse(t)
			if err != nil {
				return err
			}
			*d = Document{enc: EncOSON, od: od}
			return nil
		}
		dom, err := bson.Decode(t)
		if err != nil {
			return err
		}
		*d = Document{enc: EncBSON, dom: dom}
		return nil
	case oson.SharedValue:
		*d = Document{enc: EncOSON, od: t.Doc}
		return nil
	case *jsondom.Object, *jsondom.Array:
		*d = Document{enc: EncDOM, dom: t}
		return nil
	}
	return fmt.Errorf("%w: kind %v", ErrNotJSON, v.Kind())
}

// isOson reports whether a binary datum holds OSON (by magic) rather
// than BSON.
func isOson(b jsondom.Binary) bool { return len(b) >= 4 && string(b[:4]) == oson.Magic }

// FromDOM wraps a materialized tree.
func FromDOM(v jsondom.Value) *Document { return &Document{enc: EncDOM, dom: v} }

// Encoding returns the document's physical encoding.
func (d *Document) Encoding() Encoding { return d.enc }

// scratch returns the document's evaluation scratch, building it for a
// one-shot document.
func (d *Document) scratch() *scratch {
	if d.sc == nil {
		d.sc = new(scratch)
		d.sc.tree.Reset(d.od)
	}
	return d.sc
}

// DOM materializes (and caches) the full document tree.
func (d *Document) DOM() (jsondom.Value, error) {
	if d.dom != nil {
		return d.dom, nil
	}
	switch d.enc {
	case EncText:
		v, err := jsontext.ParseString(d.text)
		if err != nil {
			return nil, err
		}
		d.dom = v
		return v, nil
	case EncOSON:
		v, err := d.od.DecodeRoot()
		if err != nil {
			return nil, err
		}
		d.dom = v
		return v, nil
	}
	return d.dom, nil
}

// Eval evaluates a compiled path, choosing the strategy by encoding.
// limit > 0 truncates the result sequence. The slice returned for JSON
// text is the document scratch's, valid until the next evaluation over
// the document.
func (d *Document) Eval(c *pathengine.Compiled, limit int) ([]jsondom.Value, error) {
	switch d.enc {
	case EncOSON:
		return d.scratch().evalOson(c, limit)
	case EncText:
		if d.dom == nil {
			return d.scratch().txt.Eval(d.text, c, limit)
		}
		fallthrough
	default:
		dom, err := d.DOM()
		if err != nil {
			return nil, err
		}
		vals := pathengine.EvalDom(dom, c)
		if limit > 0 && len(vals) > limit {
			vals = vals[:limit]
		}
		return vals, nil
	}
}

// Exists implements JSON_EXISTS. OSON and materialized documents are
// tested over the scratch node sequences, and JSON text without a
// cached DOM is streamed, all without materializing a match.
func (d *Document) Exists(c *pathengine.Compiled) (bool, error) {
	switch {
	case d.enc == EncOSON:
		sc := d.scratch()
		ok := sc.ost.Exists(&sc.tree, d.od.Root(), c)
		if err := sc.tree.Err(); err != nil {
			return false, err
		}
		return ok, nil
	case d.dom != nil:
		return d.scratch().dst().Exists(pathengine.Dom, d.dom, c), nil
	default: // JSON text, not materialized
		return d.scratch().txt.Exists(d.text, c)
	}
}

// ReturnType is the RETURNING clause of JSON_VALUE.
type ReturnType uint8

// JSON_VALUE RETURNING types.
const (
	RetAny ReturnType = iota
	RetNumber
	RetVarchar
	RetBool
)

// Conversion returns the path-operand conversion that reproduces this
// return type's coercion of a scalar (pathengine.Convert), ok=false for
// types without one (RetAny, RetBool).
func (rt ReturnType) Conversion() (jsonpath.Conversion, bool) {
	switch rt {
	case RetNumber:
		return jsonpath.ConvNumber, true
	case RetVarchar:
		return jsonpath.ConvString, true
	}
	return jsonpath.ConvNone, false
}

// Value implements JSON_VALUE: the path must select at most one scalar;
// containers and multiple matches yield SQL NULL (lax error handling,
// the Oracle default). The result is coerced to the requested type.
func (d *Document) Value(c *pathengine.Compiled, rt ReturnType) (jsondom.Value, error) {
	// field-chain fast path over OSON bytes or a cached DOM
	if d.enc == EncOSON {
		t := &d.scratch().tree
		if node, found, ok := pathengine.EvalFieldChain[oson.NodeAddr](t, d.od.Root(), c); ok {
			if err := t.Err(); err != nil {
				return nil, err
			}
			if !found {
				return jsondom.Null{}, nil
			}
			v, isScalar := t.Scalar(node)
			if !isScalar {
				return jsondom.Null{}, nil
			}
			return Coerce(v, rt)
		}
	} else if d.dom != nil {
		if node, found, ok := pathengine.EvalFieldChain[jsondom.Value](pathengine.Dom, d.dom, c); ok {
			if !found || !node.Kind().IsScalar() {
				return jsondom.Null{}, nil
			}
			return Coerce(node, rt)
		}
	}
	vals, err := d.Eval(c, 2)
	if err != nil {
		return nil, err
	}
	if len(vals) != 1 || !vals[0].Kind().IsScalar() {
		return jsondom.Null{}, nil
	}
	return Coerce(vals[0], rt)
}

// Coerce converts a scalar to a JSON_VALUE return type. NULL passes
// through; impossible conversions yield NULL (lax NULL ON ERROR).
func Coerce(v jsondom.Value, rt ReturnType) (jsondom.Value, error) {
	if v.Kind() == jsondom.KindNull {
		return v, nil
	}
	switch rt {
	case RetAny:
		return v, nil
	case RetNumber:
		switch t := v.(type) {
		case jsondom.Number:
			// return the incoming interface value, not t: re-boxing the
			// unboxed string re-allocates the interface header on a path
			// hit once per scanned row.
			return v, nil
		case jsondom.Double:
			return jsondom.NumberFromFloat(float64(t)), nil
		case jsondom.String:
			if n, err := jsondom.N(string(t)); err == nil {
				return n, nil
			}
			return jsondom.Null{}, nil
		case jsondom.Bool:
			if t {
				return jsondom.Number("1"), nil
			}
			return jsondom.Number("0"), nil
		}
		return jsondom.Null{}, nil
	case RetVarchar:
		switch t := v.(type) {
		case jsondom.String:
			return v, nil // avoid re-boxing; see RetNumber above
		default:
			return jsondom.String(jsontext.SerializeString(t)), nil
		}
	case RetBool:
		switch t := v.(type) {
		case jsondom.Bool:
			return t, nil
		case jsondom.String:
			switch strings.ToLower(string(t)) {
			case "true":
				return jsondom.Bool(true), nil
			case "false":
				return jsondom.Bool(false), nil
			}
		}
		return jsondom.Null{}, nil
	}
	return v, nil
}

// Query implements JSON_QUERY: it returns the matched fragment(s) as
// JSON text. Zero matches yield NULL; multiple matches are wrapped in
// an array (WITH ARRAY WRAPPER semantics).
func (d *Document) Query(c *pathengine.Compiled) (jsondom.Value, error) {
	vals, err := d.Eval(c, 0)
	if err != nil {
		return nil, err
	}
	switch len(vals) {
	case 0:
		return jsondom.Null{}, nil
	case 1:
		return jsondom.String(jsontext.SerializeString(vals[0])), nil
	default:
		arr := jsondom.NewArray(vals...)
		return jsondom.String(jsontext.SerializeString(arr)), nil
	}
}

// Tokenize splits a string into lower-cased alphanumeric keywords, the
// tokenization the JSON search index applies to string leaves (§3.2.1).
func Tokenize(s string) []string {
	var out []string
	start := -1
	lower := strings.ToLower(s)
	for i := 0; i <= len(lower); i++ {
		var alnum bool
		if i < len(lower) {
			c := lower[i]
			alnum = c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c >= 0x80
		}
		if alnum {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			out = append(out, lower[start:i])
			start = -1
		}
	}
	return out
}

// TextContains implements JSON_TEXTCONTAINS: it reports whether any
// string value under the path contains the keyword (full-text
// semantics: keyword match on tokenized words).
func (d *Document) TextContains(c *pathengine.Compiled, keyword string) (bool, error) {
	vals, err := d.Eval(c, 0)
	if err != nil {
		return false, err
	}
	kw := strings.ToLower(keyword)
	for _, v := range vals {
		if containsKeyword(v, kw) {
			return true, nil
		}
	}
	return false, nil
}

func containsKeyword(v jsondom.Value, kw string) bool {
	switch t := v.(type) {
	case jsondom.String:
		for _, tok := range Tokenize(string(t)) {
			if tok == kw {
				return true
			}
		}
	case *jsondom.Object:
		for _, f := range t.Fields() {
			if containsKeyword(f.Value, kw) {
				return true
			}
		}
	case *jsondom.Array:
		for _, e := range t.Elems {
			if containsKeyword(e, kw) {
				return true
			}
		}
	}
	return false
}
