package pathengine

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/workload"
)

const poText = `{"purchaseOrder":{"id":1,"podate":"2014-09-08","foreign_id":"CDEG35",
	"items":[{"name":"phone","price":100,"quantity":2,"parts":[{"partName":"case","partQuantity":"1"}]},
	         {"name":"ipad","price":350.86,"quantity":3},
	         {"name":"tv","price":345.55,"quantity":1}]}}`

func poDom() jsondom.Value { return jsontext.MustParse(poText) }

// evalAll runs a path through all three engines and checks agreement,
// returning the DOM engine's results.
func evalAll(t *testing.T, doc jsondom.Value, path string) []jsondom.Value {
	t.Helper()
	c := MustCompile(path)
	domVals := EvalDom(doc, c)

	osonDoc := oson.MustParse(oson.MustEncode(doc))
	osonVals, err := EvalOson(osonDoc, c)
	if err != nil {
		t.Fatalf("EvalOson(%q): %v", path, err)
	}
	text := jsontext.Serialize(doc)
	textVals, err := EvalText(text, c, 0)
	if err != nil {
		t.Fatalf("EvalText(%q): %v", path, err)
	}
	// OSON stores object children sorted by field id, so result order
	// for wildcard-style steps over objects is unspecified; compare as
	// multisets.
	if !valsEqual(domVals, osonVals) {
		t.Fatalf("path %q: DOM %s != OSON %s", path, render(domVals), render(osonVals))
	}
	if !valsEqual(domVals, textVals) {
		t.Fatalf("path %q: DOM %s != TEXT %s", path, render(domVals), render(textVals))
	}
	return domVals
}

// valsEqual compares two result sequences as multisets of serialized
// values (object field order is canonicalized by sorting keys).
func valsEqual(a, b []jsondom.Value) bool {
	if len(a) != len(b) {
		return false
	}
	ka, kb := make([]string, len(a)), make([]string, len(b))
	for i := range a {
		ka[i] = canonKey(a[i])
		kb[i] = canonKey(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// canonKey renders a value with object fields sorted by name so the
// key is independent of field order.
func canonKey(v jsondom.Value) string {
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
			sb.WriteString(canonKey(f.Value))
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
			sb.WriteString(canonKey(e))
		}
		sb.WriteByte(']')
		return sb.String()
	default:
		return jsontext.SerializeString(v)
	}
}

func render(vs []jsondom.Value) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.Write(jsontext.Serialize(v))
	}
	sb.WriteByte(']')
	return sb.String()
}

func TestRootPath(t *testing.T) {
	doc := poDom()
	vals := evalAll(t, doc, "$")
	if len(vals) != 1 || !jsondom.Equal(vals[0], doc) {
		t.Fatalf("$ = %s", render(vals))
	}
}

func TestFieldChain(t *testing.T) {
	vals := evalAll(t, poDom(), "$.purchaseOrder.id")
	if len(vals) != 1 || vals[0].(jsondom.Number) != "1" {
		t.Fatalf("id = %s", render(vals))
	}
	if vals := evalAll(t, poDom(), "$.purchaseOrder.missing"); len(vals) != 0 {
		t.Fatalf("missing = %s", render(vals))
	}
	if vals := evalAll(t, poDom(), "$.missing.deeper"); len(vals) != 0 {
		t.Fatalf("missing chain = %s", render(vals))
	}
}

func TestArraySteps(t *testing.T) {
	vals := evalAll(t, poDom(), "$.purchaseOrder.items[*].name")
	if len(vals) != 3 || vals[2].(jsondom.String) != "tv" {
		t.Fatalf("names = %s", render(vals))
	}
	vals = evalAll(t, poDom(), "$.purchaseOrder.items[1].price")
	if len(vals) != 1 || vals[0].(jsondom.Number) != "350.86" {
		t.Fatalf("item 1 price = %s", render(vals))
	}
	vals = evalAll(t, poDom(), "$.purchaseOrder.items[0 to 1].name")
	if len(vals) != 2 {
		t.Fatalf("range = %s", render(vals))
	}
	vals = evalAll(t, poDom(), "$.purchaseOrder.items[0,2].name")
	if len(vals) != 2 || vals[1].(jsondom.String) != "tv" {
		t.Fatalf("list = %s", render(vals))
	}
	// out of range yields empty
	if vals := evalAll(t, poDom(), "$.purchaseOrder.items[9].name"); len(vals) != 0 {
		t.Fatalf("out of range = %s", render(vals))
	}
}

func TestLastSubscript(t *testing.T) {
	// 'last' forces the DOM fallback in EvalText; agreement must hold
	vals := evalAll(t, poDom(), "$.purchaseOrder.items[last].name")
	if len(vals) != 1 || vals[0].(jsondom.String) != "tv" {
		t.Fatalf("last = %s", render(vals))
	}
	vals = evalAll(t, poDom(), "$.purchaseOrder.items[last-2].name")
	if len(vals) != 1 || vals[0].(jsondom.String) != "phone" {
		t.Fatalf("last-2 = %s", render(vals))
	}
}

func TestLaxArrayUnwrap(t *testing.T) {
	// field step applied to an array: lax unwraps elements
	vals := evalAll(t, poDom(), "$.purchaseOrder.items.name")
	if len(vals) != 3 {
		t.Fatalf("lax unwrap = %s", render(vals))
	}
	// array step on a non-array wraps: $.purchaseOrder.id[0]
	vals = evalAll(t, poDom(), "$.purchaseOrder.id[0]")
	if len(vals) != 1 || vals[0].(jsondom.Number) != "1" {
		t.Fatalf("lax wrap = %s", render(vals))
	}
	vals = evalAll(t, poDom(), "$.purchaseOrder.id[*]")
	if len(vals) != 1 {
		t.Fatalf("lax wrap wildcard = %s", render(vals))
	}
	if vals := evalAll(t, poDom(), "$.purchaseOrder.id[1]"); len(vals) != 0 {
		t.Fatalf("lax wrap index 1 = %s", render(vals))
	}
}

func TestStrictMode(t *testing.T) {
	c := MustCompile("strict $.purchaseOrder.items.name")
	vals := EvalDom(poDom(), c)
	if len(vals) != 0 {
		t.Fatalf("strict unwrap should fail: %s", render(vals))
	}
}

func TestWildcardStep(t *testing.T) {
	doc := jsontext.MustParse(`{"a":1,"b":{"c":2},"d":[3]}`)
	vals := evalAll(t, doc, "$.*")
	if len(vals) != 3 {
		t.Fatalf("wildcard = %s", render(vals))
	}
}

func TestDescendantStep(t *testing.T) {
	vals := evalAll(t, poDom(), "$..partName")
	if len(vals) != 1 || vals[0].(jsondom.String) != "case" {
		t.Fatalf("descendant = %s", render(vals))
	}
	vals = evalAll(t, poDom(), "$..name")
	if len(vals) != 3 {
		t.Fatalf("descendant names = %s", render(vals))
	}
}

func TestFilterComparisons(t *testing.T) {
	vals := evalAll(t, poDom(), `$.purchaseOrder.items[*]?(@.price > 300).name`)
	if len(vals) != 2 {
		t.Fatalf("price > 300 = %s", render(vals))
	}
	vals = evalAll(t, poDom(), `$.purchaseOrder.items[*]?(@.name == "tv").price`)
	if len(vals) != 1 || vals[0].(jsondom.Number) != "345.55" {
		t.Fatalf("name == tv = %s", render(vals))
	}
	vals = evalAll(t, poDom(), `$.purchaseOrder.items[*]?(@.price >= 100 && @.quantity <= 2).name`)
	if len(vals) != 2 {
		t.Fatalf("and = %s", render(vals))
	}
	vals = evalAll(t, poDom(), `$.purchaseOrder.items[*]?(@.name == "phone" || @.name == "tv").name`)
	if len(vals) != 2 {
		t.Fatalf("or = %s", render(vals))
	}
	vals = evalAll(t, poDom(), `$.purchaseOrder.items[*]?(!(@.name == "phone")).name`)
	if len(vals) != 2 {
		t.Fatalf("not = %s", render(vals))
	}
	vals = evalAll(t, poDom(), `$.purchaseOrder.items[*]?(exists(@.parts)).name`)
	if len(vals) != 1 || vals[0].(jsondom.String) != "phone" {
		t.Fatalf("exists = %s", render(vals))
	}
	vals = evalAll(t, poDom(), `$.purchaseOrder.items[*]?(@.name starts with "ip").name`)
	if len(vals) != 1 || vals[0].(jsondom.String) != "ipad" {
		t.Fatalf("starts with = %s", render(vals))
	}
	vals = evalAll(t, poDom(), `$.purchaseOrder.items[*]?(@.name has substring "a").name`)
	if len(vals) != 1 || vals[0].(jsondom.String) != "ipad" {
		t.Fatalf("has substring = %s", render(vals))
	}
}

func TestFilterLaxUnwrapsArray(t *testing.T) {
	// filter applied directly to an array in lax mode unwraps it
	vals := evalAll(t, poDom(), `$.purchaseOrder.items?(@.price > 300).name`)
	if len(vals) != 2 {
		t.Fatalf("lax filter unwrap = %s", render(vals))
	}
}

func TestFilterRootReference(t *testing.T) {
	vals := evalAll(t, poDom(),
		`$.purchaseOrder.items[*]?(@.quantity == $.purchaseOrder.id).name`)
	if len(vals) != 1 || vals[0].(jsondom.String) != "tv" {
		t.Fatalf("root ref = %s", render(vals))
	}
}

func TestNullComparison(t *testing.T) {
	doc := jsontext.MustParse(`[{"v":null,"k":"a"},{"v":1,"k":"b"}]`)
	vals := evalAll(t, doc, `$[*]?(@.v == null).k`)
	if len(vals) != 1 || vals[0].(jsondom.String) != "a" {
		t.Fatalf("null eq = %s", render(vals))
	}
	vals = evalAll(t, doc, `$[*]?(@.v != null).k`)
	if len(vals) != 1 || vals[0].(jsondom.String) != "b" {
		t.Fatalf("null ne = %s", render(vals))
	}
}

func TestExistsHelpers(t *testing.T) {
	c := MustCompile("$.purchaseOrder.foreign_id")
	if !Exists[jsondom.Value](Dom, poDom(), c) {
		t.Fatal("Exists should be true")
	}
	ok, err := ExistsText(jsontext.Serialize(poDom()), c)
	if err != nil || !ok {
		t.Fatalf("ExistsText = %v, %v", ok, err)
	}
	c = MustCompile("$.nothing")
	ok, err = ExistsText(jsontext.Serialize(poDom()), c)
	if err != nil || ok {
		t.Fatalf("ExistsText(miss) = %v, %v", ok, err)
	}
}

func TestEvalTextLimit(t *testing.T) {
	c := MustCompile("$.purchaseOrder.items[*].name")
	vals, err := EvalText([]byte(jsontext.SerializeString(poDom())), c, 2)
	if err != nil || len(vals) != 2 {
		t.Fatalf("limit: %s, %v", render(vals), err)
	}
	// limit with DOM fallback path
	c = MustCompile("$.purchaseOrder.items[last].name")
	vals, err = EvalText([]byte(jsontext.SerializeString(poDom())), c, 1)
	if err != nil || len(vals) != 1 {
		t.Fatalf("fallback limit: %s, %v", render(vals), err)
	}
}

// TestStreamable pins where text evaluation hands a path from the event
// stream to the DOM engine: at the first filter, descendant, wildcard
// or 'last' step, or at step 0 (the whole document) when a filter has
// a '$'-anchored operand.
func TestStreamable(t *testing.T) {
	cases := []struct {
		path       string
		streamable bool
		handoff    int
	}{
		{"$.a.b", true, 2},
		{"$.a[*].b", true, 3},
		{"$.a[0,1 to 2].b", true, 3},
		{"$", true, 0},
		{"$.a[last]", false, 1},
		{"$.a[0 to last]", false, 1},
		{"$.*", false, 0},
		{"$..x", false, 0},
		{"$.a?(@.b == 1)", false, 1},
		{`$.nested_arr[*]?(@ == "alpha")`, false, 2},
		{"$.a.b..c", false, 2},
		{"$.a[1].b[last].c", false, 3},
		{"$.a.*.b", false, 1},
		{"$.a[*]?(@.b > 1).c?(@ == 2)", false, 2},
		// '$'-anchored operands need the root: whole-document fallback
		{"$.a[*]?(@.b == $.c).d", false, 0},
		{"$.a.b?(@.c == 1).d?(exists($.e))", false, 0},
		{"$.a?(!(@.b == 1 && @.c == $.d))", false, 0},
		// a '$' inside an '@'-relative operand path resolves against
		// that operand's base, not the document root
		{"$.a?(exists(@.b?(@.c == $.d)))", false, 1},
		// subscripts out of order or overlapping select in subscript
		// order, repeats included, which only the DOM engine does
		{"$.a[1,0]", false, 1},
		{"$.a[0,0]", false, 1},
		{"$.a[0 to 2,1]", false, 1},
		{"$.a[1,0]?(@ > 0)", false, 1},
		{"$.a.b[2,0 to 1].c", false, 2},
		{"$.a[0,2 to 1,1]", true, 2},
	}
	for _, c := range cases {
		cp := MustCompile(c.path)
		if got := cp.Streamable(); got != c.streamable {
			t.Errorf("Streamable(%q) = %v, want %v", c.path, got, c.streamable)
		}
		if cp.handoff != c.handoff {
			t.Errorf("handoff(%q) = %d, want %d", c.path, cp.handoff, c.handoff)
		}
	}
}

// TestTextDuplicateKeys: a repeated key resolves to its last
// occurrence over JSON text, as it does in the DOM and OSON, whether
// the path streams or hands off.
func TestTextDuplicateKeys(t *testing.T) {
	cases := []struct {
		doc, path, want string
	}{
		{`{"a":1,"a":2}`, "$.a", "[2]"},
		{`{"a":{"b":1},"a":{}}`, "$.a.b", "[]"},
		{`{"a":{"b":1},"x":0,"a":{"b":3}}`, "$.a.b", "[3]"},
		{`{"a":[1,2],"a":[3]}`, "$.a[*]", "[3]"},
		{`{"a":{"b":1,"b":2,"c":{"b":5}},"a":{"b":7,"b":8}}`, "$.a.b", "[8]"},
		{`[{"a":1,"a":2},{"a":3}]`, "$.a", "[2 3]"},
		{`{"a":[1,5],"a":[2,6]}`, "$.a[*]?(@ > 4)", "[6]"},
		{`{"a":[1,2,3],"b":0,"a":[4,5]}`, "$.a[last]", "[5]"},
		{`{"k\u0041":1,"kA":2}`, "$.kA", "[2]"},
		// repeated or descending subscripts keep subscript order
		{`{"a":[1,2]}`, "$.a[1,0]", "[2 1]"},
		{`{"a":[1,2]}`, "$.a[0,0]", "[1 1]"},
		{`{"a":[1,2,3]}`, "$.a[0 to 1,1 to 2]", "[1 2 2 3]"},
		{`{"a":[1,2]}`, "$.a[1,0]?(@ > 0)", "[2 1]"},
		{`{"a":[{"b":1},{"b":2}]}`, "$.a[0,0]..b", "[1 1]"},
		{`{"a":[{"b":1},{"b":2}]}`, "$.a[1,0].*", "[2 1]"},
	}
	for _, c := range cases {
		cp := MustCompile(c.path)
		vals, err := EvalText([]byte(c.doc), cp, 0)
		if err != nil {
			t.Fatalf("%s over %s: %v", c.path, c.doc, err)
		}
		if got := render(vals); got != c.want {
			t.Errorf("%s over %s = %s, want %s", c.path, c.doc, got, c.want)
		}
		dom := EvalDom(jsontext.MustParse(c.doc), cp)
		if render(dom) != c.want {
			t.Errorf("%s over %s: DOM %s, want %s", c.path, c.doc, render(dom), c.want)
		}
		ok, err := ExistsText([]byte(c.doc), cp)
		if err != nil || ok != (c.want != "[]") {
			t.Errorf("ExistsText(%s over %s) = %v, %v", c.path, c.doc, ok, err)
		}
	}
	// a limit keeps the first results of the last occurrence
	vals, err := EvalText([]byte(`{"a":[1,2],"a":[3,4]}`), MustCompile("$.a[*]"), 1)
	if err != nil || render(vals) != "[3]" {
		t.Fatalf("limit over duplicates = %s, %v", render(vals), err)
	}
}

// TestTextStateAllocs: once warm, a TextState evaluates paths without
// allocating beyond the boxed results, and tests existence without any
// allocation — including a filter over scalar array elements, which
// are handed to the DOM engine unboxed.
func TestTextStateAllocs(t *testing.T) {
	doc := jsontext.SerializeString(jsontext.MustParse(`{"str1":"GBRDC0000001","num":17,
		"nested_arr":["alpha","bravo","charlie"],"nested_obj":{"str":"s1","num":17},
		"sparse_110":"x","tail":[{"deep":[1,2,{"x":"y"}]},true,null]}`))
	cases := []struct {
		path   string
		exists bool
		max    float64
	}{
		{"$.nested_obj.str", false, 1},
		{"$.str1", false, 1},
		{"$.sparse_110", true, 0},
		{"$.nested_obj", true, 0},
		{"$.tail[0].deep[2].x", true, 0},
		{"$.missing", false, 0},
		{`$.nested_arr[*]?(@ == "alpha")`, true, 0},
		{`$.nested_arr[*]?(@ == "charlie")`, true, 0},
		{`$.nested_arr[*]?(@ starts with "b")`, false, 1},
	}
	var ts TextState
	for _, c := range cases {
		cp := MustCompile(c.path)
		run := func() {
			if c.exists {
				if ok, err := ts.Exists(doc, cp); err != nil || !ok {
					t.Fatalf("%s: exists = %v, %v", c.path, ok, err)
				}
				return
			}
			if _, err := ts.Eval(doc, cp, 2); err != nil {
				t.Fatalf("%s: %v", c.path, err)
			}
		}
		run()
		if n := testing.AllocsPerRun(50, run); n > c.max {
			t.Errorf("%s: %.1f allocs per evaluation, want <= %.0f", c.path, n, c.max)
		}
	}
}

func TestEvalTextBadInput(t *testing.T) {
	c := MustCompile("$.a.b")
	if _, err := EvalText([]byte(`{"a":{`), c, 0); err == nil {
		t.Fatal("truncated text should error")
	}
	c = MustCompile("$.a[last]") // DOM fallback
	if _, err := EvalText([]byte(`{"a":[`), c, 0); err == nil {
		t.Fatal("truncated text should error in fallback")
	}
}

func genDoc(r *rand.Rand, depth int) jsondom.Value {
	switch r.Intn(3) {
	case 0:
		o := jsondom.NewObject()
		names := []string{"a", "b", "c", "items", "name", "price"}
		for i := 1 + r.Intn(4); i > 0; i-- {
			o.Set(names[r.Intn(len(names))], genSub(r, depth-1))
		}
		return o
	case 1:
		a := jsondom.NewArray()
		for i := r.Intn(5); i > 0; i-- {
			a.Append(genSub(r, depth-1))
		}
		return a
	default:
		return genSub(r, depth-1)
	}
}

func genSub(r *rand.Rand, depth int) jsondom.Value {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return jsondom.Null{}
		case 1:
			return jsondom.Bool(r.Intn(2) == 0)
		case 2:
			return jsondom.NumberFromInt(r.Int63n(1000))
		default:
			return jsondom.String([]string{"x", "yy", "zzz"}[r.Intn(3)])
		}
	}
	return genDoc(r, depth)
}

var propPaths = []string{
	"$", "$.a", "$.a.b", "$.items[*].name", "$.items[0].price",
	"$.a[*]", "$.a[0,2]", "$.a[0 to 1].b", "$.items.name",
	"$.a[last]", "$.*", "$..name",
	`$.items[*]?(@.price > 500).name`,
	`$.a?(exists(@.b)).c`,
}

func TestThreeEngineAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := genDoc(r, 4)
		for _, pt := range propPaths {
			c := MustCompile(pt)
			domVals := EvalDom(doc, c)

			od := oson.MustParse(oson.MustEncode(doc))
			osonVals, err := EvalOson(od, c)
			if err != nil {
				t.Logf("oson eval error on %q: %v", pt, err)
				return false
			}
			textVals, err := EvalText(jsontext.Serialize(doc), c, 0)
			if err != nil {
				t.Logf("text eval error on %q: %v", pt, err)
				return false
			}
			if !valsEqual(domVals, osonVals) || !valsEqual(domVals, textVals) {
				t.Logf("disagreement on path %q doc %s:\n dom=%s\noson=%s\ntext=%s",
					pt, jsontext.Serialize(doc), render(domVals), render(osonVals), render(textVals))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvalDom(b *testing.B) {
	doc := poDom()
	c := MustCompile("$.purchaseOrder.items[*].price")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(EvalDom(doc, c)) != 3 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkEvalOson(b *testing.B) {
	d := oson.MustParse(oson.MustEncode(poDom()))
	c := MustCompile("$.purchaseOrder.items[*].price")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err := EvalOson(d, c)
		if err != nil || len(vals) != 3 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkEvalTextStreaming(b *testing.B) {
	text := jsontext.Serialize(poDom())
	c := MustCompile("$.purchaseOrder.items[*].price")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err := EvalText(text, c, 0)
		if err != nil || len(vals) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkTextStateNoBench is rung 2 of the benchmark ladder for JSON
// text: the NOBENCH query paths (§6.4) evaluated by one reused
// TextState over 256 NOBENCH documents — JSON_VALUE-style evaluation
// (limit 2) and JSON_EXISTS-style existence tests, per document.
func BenchmarkTextStateNoBench(b *testing.B) {
	docs := make([]string, 256)
	for i := range docs {
		docs[i] = jsontext.SerializeString(workload.GenNoBench(1, i))
	}
	cases := []struct {
		name, path string
		exists     bool
	}{
		{"str1", "$.str1", false},
		{"nested_num", "$.nested_obj.num", false},
		{"sparse_exists", "$.sparse_110", true},
		{"arr_filter", `$.nested_arr[*]?(@ == "alpha")`, true},
	}
	for _, c := range cases {
		cp := MustCompile(c.path)
		b.Run(c.name, func(b *testing.B) {
			var ts TextState
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := docs[i%len(docs)]
				var err error
				if c.exists {
					_, err = ts.Exists(d, cp)
				} else {
					_, err = ts.Eval(d, cp, 2)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
