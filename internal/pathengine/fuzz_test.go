// Differential fuzzing of the path engines against the DOM engine.
//
// The two Tree backends: any compiled path
// evaluated over the same document must select the same value multiset
// whether it navigates a parsed DOM or serialized OSON bytes. The
// comparison is order-insensitive (OSON iterates objects in dictionary
// order, the DOM in insertion order) and canonicalizes numbers (OSON
// round-trips them through the decimal encoding, so "1.0" decodes as
// "1"). Exists is checked against Eval on both backends as well, which
// cross-validates the streaming existence engine against the
// arena-based evaluation engine.
//
// The text engine: streaming JSON text with its hand-off to the DOM
// engine must select what the DOM engine selects over the parsed text,
// in the same order — duplicate keys and escaped keys included — and
// must reject every document the parser rejects.

package pathengine

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
)

// fuzzCanon renders a value like canonKey but with numbers
// canonicalized through float64, so text-preserved and
// decimal-round-tripped spellings of the same number compare equal.
func fuzzCanon(v jsondom.Value) string {
	switch t := v.(type) {
	case *jsondom.Object:
		var sb strings.Builder
		sb.WriteByte('{')
		for i, f := range t.SortedFields() {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(f.Name)
			sb.WriteByte(':')
			sb.WriteString(fuzzCanon(f.Value))
		}
		sb.WriteByte('}')
		return sb.String()
	case *jsondom.Array:
		var sb strings.Builder
		sb.WriteByte('[')
		for i, e := range t.Elems {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(fuzzCanon(e))
		}
		sb.WriteByte(']')
		return sb.String()
	case jsondom.Number:
		return strconv.FormatFloat(t.Float64(), 'g', -1, 64)
	case jsondom.Double:
		return strconv.FormatFloat(float64(t), 'g', -1, 64)
	default:
		return jsontext.SerializeString(v)
	}
}

func fuzzMultiset(vs []jsondom.Value) []string {
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = fuzzCanon(v)
	}
	sort.Strings(keys)
	return keys
}

// operandSeedDocs and operandSeedPaths seed both fuzzers with filter
// operands that are '@' or plain field chains, landing on each kind of
// node: scalars, arrays (lax unwrapping), objects, and missing fields.
var operandSeedDocs = []string{
	`{"a":[1,2],"b":{"c":1},"c":1,"d":null,"e":"1"}`,
	`[{"a":{"b":1}},{"a":[{"b":1},{"b":2}]},{"a":1},{"a":{"b":[1,3]}},{"b":true},{},[{"a":{"b":1}}]]`,
	`{"x":[{"q":"9","p":9},{"q":9,"p":"9"},{"q":true},{"q":null},{"q":[9]},{"q":{"r":9}}]}`,
}

var operandSeedPaths = []string{
	`$?(@ == 1)`,
	`$.c?(@ > 0)`,
	`$.a?(@ == 2)`,
	`$.b?(@ == 1)`,
	`$[*]?(@ == true)`,
	`$?(@.c == 1)`,
	`$?(@.a == 2)`,
	`$?(@.b == 1)`,
	`$?(@.b.c >= 1)`,
	`$?(@.missing == 1)`,
	`$?(@.d == null)`,
	`$?(@.e == 1 || @.e == "1")`,
	`$[*]?(@.a.b == 1)`,
	`$[*]?(@.a.b > 2)`,
	`$[*]?(@.a == 1)`,
	`$[*]?(@.a.b == @.a.b)`,
	`strict $[*]?(@.a.b == 1)`,
	`strict $[*]?(@.a == 1)`,
	`strict $?(@.a == 2)`,
	`strict $.x[*]?(@.q == 9)`,
	`$.x[*]?(@.q == 9 || @.q == "9" || @.q == null)`,
	`$.x[*]?(@.q == 9 || @.p == "9")`,
	`$.x[*]?(@.q.r == 9)`,
	`$.x[*]?(@.q != 9).p`,
	`$..*?(@.q == 9)`,
}

// addSeeds adds every pairing of docs and paths, then the pairings that
// involve the operand seeds: filter operands read directly ('@' or an
// '@'-relative field chain) landing on scalars, arrays, objects and
// missing fields, in lax and strict mode, and IN-list-shaped
// disjunctions. The operand pairings come last so the seed numbers of
// the docs × paths pairings stay stable.
func addSeeds(f *testing.F, docs, paths []string) {
	for _, d := range docs {
		for _, p := range paths {
			f.Add(d, p)
		}
	}
	for _, d := range docs {
		for _, p := range operandSeedPaths {
			f.Add(d, p)
		}
	}
	for _, d := range operandSeedDocs {
		for _, p := range paths {
			f.Add(d, p)
		}
		for _, p := range operandSeedPaths {
			f.Add(d, p)
		}
	}
}

// FuzzPathEvalOsonVsDom evaluates a fuzzer-chosen path over a
// fuzzer-chosen document through both backends and requires identical
// results.
func FuzzPathEvalOsonVsDom(f *testing.F) {
	seedDocs := []string{
		`{"a":1,"b":"x"}`,
		`{"purchaseOrder":{"id":7,"podate":"2014-07-30","items":[
			{"name":"phone","price":100.0,"quantity":2,"parts":[{"partName":"battery"}]},
			{"name":"tablet","price":350.86,"quantity":3}]}}`,
		`[1,[2,[3,[4]]],{"a":[{"b":null},{"b":true},{"b":false}]}]`,
		`{"n":{"a":1e10,"b":-0.5,"c":0,"d":123456789.123},"s":{"e":"","f":"é"}}`,
	}
	seedPaths := []string{
		`$`,
		`$.a`,
		`$.purchaseOrder.items[*].name`,
		`$.purchaseOrder.items[0 to 1].parts[*].partName`,
		`$..b`,
		`$..items[last]`,
		`$.purchaseOrder.items[*]?(@.price > 200).name`,
		`$.purchaseOrder.items[*]?(@.name == "phone" || @.quantity >= 3)`,
		`$[*].a[*].b`,
		`$.n.*`,
		`$..*?(@.partName starts with "bat")`,
	}
	addSeeds(f, seedDocs, seedPaths)
	f.Fuzz(func(t *testing.T, docText, pathText string) {
		if len(docText) > 1<<12 || len(pathText) > 1<<8 {
			t.Skip("oversized input")
		}
		dom, err := jsontext.Parse([]byte(docText))
		if err != nil {
			t.Skip("not JSON")
		}
		c, err := CompileText(pathText)
		if err != nil {
			t.Skip("not a path")
		}
		enc, err := oson.Encode(dom)
		if err != nil {
			t.Skip("not encodable")
		}
		od, err := oson.Parse(enc)
		if err != nil {
			t.Fatalf("own encoding failed to parse: %v", err)
		}

		domRes := Eval(Dom, dom, c)
		ot := NewOsonTree(od)
		osonNodes := Eval[oson.NodeAddr](ot, od.Root(), c)
		if err := ot.Err(); err != nil {
			t.Fatalf("oson navigation failed: %v", err)
		}
		osonRes := make([]jsondom.Value, len(osonNodes))
		for i, n := range osonNodes {
			v, err := od.Decode(n)
			if err != nil {
				t.Fatalf("decode result %d: %v", i, err)
			}
			osonRes[i] = v
		}

		dk, ok := fuzzMultiset(domRes), fuzzMultiset(osonRes)
		if len(dk) != len(ok) {
			t.Fatalf("path %q: dom selected %d values, oson %d\ndom:  %v\noson: %v",
				pathText, len(dk), len(ok), dk, ok)
		}
		for i := range dk {
			if dk[i] != ok[i] {
				t.Fatalf("path %q: result %d differs\ndom:  %s\noson: %s",
					pathText, i, dk[i], ok[i])
			}
		}

		// Exists must agree with Eval on both backends (streaming engine
		// vs arena engine).
		if got := Exists(Dom, dom, c); got != (len(domRes) > 0) {
			t.Fatalf("path %q: dom Exists=%v but Eval selected %d", pathText, got, len(domRes))
		}
		ot2 := NewOsonTree(od)
		if got := Exists[oson.NodeAddr](ot2, od.Root(), c); ot2.Err() == nil && got != (len(osonNodes) > 0) {
			t.Fatalf("path %q: oson Exists=%v but Eval selected %d", pathText, got, len(osonNodes))
		}
	})
}

// FuzzPathEvalTextVsDom evaluates a fuzzer-chosen path over
// fuzzer-chosen JSON text through the text engine (event streaming with
// a DOM hand-off) and through the DOM engine over the parsed document,
// and requires the same values in the same order. Existence over text
// must agree too.
func FuzzPathEvalTextVsDom(f *testing.F) {
	seedDocs := []string{
		`{"a":1,"b":"x"}`,
		`{"k\u0041":1,"kA":2,"k\"q":3}`,
		`{"k\u0041":{"b":[1]}}`,
		`{"a":1,"a":2}`,
		`{"a":{"b":1},"a":{"c":[1,2]}}`,
		`[{"a":1,"a":[3,4]},{"a":{"b":null}},5]`,
		`{"purchaseOrder":{"id":7,"items":[
			{"name":"phone","price":100.0,"quantity":2,"parts":[{"partName":"battery"}]},
			{"name":"tablet","price":350.86,"quantity":7}]}}`,
		`{"nested_arr":["alpha","bravo","alpha"],"n":{"s":"a\tb","e":1e3}}`,
		`"scalar"`,
		`{"a":[1,2],"b":{"c":"x\q"}}`,
		`{"a":{"b":1},"z":[1,}`,
		`{"a":1} trailing`,
	}
	seedPaths := []string{
		`$`,
		`$.a`,
		`$.a.b`,
		`$.kA`,
		`$.a[*]`,
		`$.a[0 to 1]`,
		`$..b`,
		`$.a[last]`,
		`$.*`,
		`$.nested_arr[*]?(@ == "alpha")`,
		`$.purchaseOrder.items[*]?(@.price > 200).name`,
		`$.purchaseOrder.items[*]?(@.quantity == $.purchaseOrder.id).name`,
		`$.purchaseOrder..partName`,
		`strict $.a[*].b`,
		`$.a[1,0]`,
		`$.a[0,0]`,
		`$.a[1,0]?(@ > 0)`,
		`$.a[0,0]..b`,
		`$.a[1,0].*`,
		`$.a[0,0].b[last]`,
	}
	addSeeds(f, seedDocs, seedPaths)
	f.Fuzz(func(t *testing.T, docText, pathText string) {
		if len(docText) > 1<<12 || len(pathText) > 1<<8 {
			t.Skip("oversized input")
		}
		c, err := CompileText(pathText)
		if err != nil {
			t.Skip("not a path")
		}
		var ts TextState
		dom, err := jsontext.ParseString(docText)
		if err != nil {
			// the text engine scans the whole document whatever the path
			// selects, so it must reject what the parser rejects
			if _, terr := ts.Eval(docText, c, 0); terr == nil {
				t.Fatalf("path %q: text engine accepted malformed %q", pathText, docText)
			}
			if _, terr := ts.Exists(docText, c); terr == nil {
				t.Fatalf("path %q: text Exists accepted malformed %q", pathText, docText)
			}
			return
		}
		want := Eval(Dom, dom, c)
		got, err := ts.Eval(docText, c, 0)
		if err != nil {
			t.Fatalf("path %q over %q: text engine failed: %v", pathText, docText, err)
		}
		if len(got) != len(want) {
			t.Fatalf("path %q over %q: dom selected %d values, text %d\ndom:  %v\ntext: %v",
				pathText, docText, len(want), len(got), want, got)
		}
		for i := range want {
			if !jsondom.Equal(got[i], want[i]) {
				t.Fatalf("path %q over %q: result %d differs\ndom:  %s\ntext: %s",
					pathText, docText, i, jsontext.SerializeString(want[i]), jsontext.SerializeString(got[i]))
			}
		}
		if ok, err := ts.Exists(docText, c); err != nil || ok != (len(want) > 0) {
			t.Fatalf("path %q over %q: text Exists = %v, %v but dom selected %d",
				pathText, docText, ok, err, len(want))
		}
	})
}
