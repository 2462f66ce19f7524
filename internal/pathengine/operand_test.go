package pathengine

import (
	"fmt"
	"testing"

	"repro/internal/jsondom"
	"repro/internal/jsonpath"
	"repro/internal/jsontext"
	"repro/internal/oson"
)

// operandDocs are filter context items: scalars, arrays, objects, and
// objects whose operand fields are scalars, arrays, objects, missing.
var operandDocs = []string{
	`1`, `"9"`, `true`, `null`, `[1,2]`, `{}`,
	`{"a":1}`, `{"a":"1e1"}`, `{"a":true}`, `{"a":null}`, `{"a":[1,"2"]}`, `{"a":{"b":2}}`,
	`{"a":{"b":[2,3]}}`, `{"a":[{"b":2},{"b":4}]}`, `{"a":{"b":"x"}}`, `{"b":1}`,
}

// TestDirectOperandMatchesGeneric pins the direct operand read to the
// generic one: wherever directScalar answers, its one scalar (or empty
// sequence) is what operandScalars collects, with and without a
// conversion, in lax and strict mode, over DOM and OSON trees.
func TestDirectOperandMatchesGeneric(t *testing.T) {
	operands := []string{`@`, `@.a`, `@.a.b`, `@.missing`}
	convs := []jsonpath.Conversion{jsonpath.ConvNone, jsonpath.ConvNumber, jsonpath.ConvString}
	answered := 0
	for _, lax := range []bool{true, false} {
		for _, text := range operands {
			p, err := jsonpath.Parse("$" + text[1:])
			if err != nil {
				t.Fatal(err)
			}
			p.Lax = lax
			p.Text = text
			for _, conv := range convs {
				o := compileOperand(jsonpath.PathOperand{Path: p, Conv: conv})
				for _, docText := range operandDocs {
					dom := jsontext.MustParse(docText)
					od := oson.MustParse(oson.MustEncode(dom))
					ot := NewOsonTree(od)
					for bi, check := range []func() (jsondom.Scalar, bool, bool, []jsondom.Scalar){
						func() (jsondom.Scalar, bool, bool, []jsondom.Scalar) {
							var st EvalState[jsondom.Value]
							s, ok, direct := directScalar[jsondom.Value](Dom, dom, o)
							return s, ok, direct, st.operandScalars(Dom, dom, dom, o)
						},
						func() (jsondom.Scalar, bool, bool, []jsondom.Scalar) {
							var st EvalState[oson.NodeAddr]
							s, ok, direct := directScalar[oson.NodeAddr](ot, od.Root(), o)
							return s, ok, direct, st.operandScalars(ot, od.Root(), od.Root(), o)
						},
					} {
						s, ok, direct, generic := check()
						if !direct {
							continue
						}
						answered++
						where := fmt.Sprintf("backend %d lax=%v %s conv=%d over %s", bi, lax, text, conv, docText)
						switch {
						case !ok && len(generic) != 0:
							t.Errorf("%s: direct empty, generic %v", where, generic)
						case ok && (len(generic) != 1 || !sameScalar(s, generic[0])):
							t.Errorf("%s: direct %v, generic %v", where, s, generic)
						}
					}
				}
			}
		}
	}
	if answered == 0 {
		t.Fatal("directScalar never answered")
	}
}

func sameScalar(a, b jsondom.Scalar) bool {
	return jsondom.Equal(a.Box(), b.Box())
}

// TestEqListMatchesDisjunction evaluates IN-list-shaped '||' chains
// (read once) against the same disjunction written so it does not
// take that shape (each leaf under a double negation).
func TestEqListMatchesDisjunction(t *testing.T) {
	doc := jsontext.MustParse(`{"x":[` + joinDocs(operandDocs) + `]}`)
	pairs := [][2]string{
		{`$.x[*]?(@.a == 1 || @.a == "x" || @.a == null)`,
			`$.x[*]?(!(!(@.a == 1)) || !(!(@.a == "x")) || !(!(@.a == null)))`},
		{`$.x[*]?(@.a.b == 2 || @.a.b == 3)`, `$.x[*]?(!(!(@.a.b == 2)) || !(!(@.a.b == 3)))`},
		{`$.x[*]?(@ == 1 || @ == "9" || @ == true)`, `$.x[*]?(!(!(@ == 1)) || !(!(@ == "9")) || !(!(@ == true)))`},
		{`strict $.x[*]?(@.a == 1 || @.a == "2")`, `strict $.x[*]?(!(!(@.a == 1)) || !(!(@.a == "2")))`},
	}
	for _, p := range pairs {
		c := MustCompile(p[0])
		if c.steps[len(c.steps)-1].filter.eqLits == nil {
			t.Fatalf("%s: not compiled as an equality list", p[0])
		}
		got, want := evalAll(t, doc, p[0]), evalAll(t, doc, p[1])
		if fmt.Sprint(fuzzMultiset(got)) != fmt.Sprint(fuzzMultiset(want)) {
			t.Errorf("%s selected %v, the plain disjunction %v", p[0], got, want)
		}
	}
	// mixed operands or operators keep the plain disjunction
	for _, p := range []string{`$.x[*]?(@.a == 1 || @.b == 1)`, `$.x[*]?(@.a == 1 || @.a > 1)`} {
		if c := MustCompile(p); c.steps[len(c.steps)-1].filter.eqLits != nil {
			t.Errorf("%s compiled as an equality list", p)
		}
	}
}

func joinDocs(docs []string) string {
	out := ""
	for i, d := range docs {
		if i > 0 {
			out += ","
		}
		out += d
	}
	return out
}

// TestConvert pins the column conversions prefilter operands apply.
func TestConvert(t *testing.T) {
	cases := []struct {
		in   jsondom.Value
		conv jsonpath.Conversion
		want string // "" for no item
	}{
		{jsondom.Number("9"), jsonpath.ConvNumber, "9"},
		{jsondom.String("9"), jsonpath.ConvNumber, "9"},
		{jsondom.String("1e1"), jsonpath.ConvNumber, "10"},
		{jsondom.String("abc"), jsonpath.ConvNumber, ""},
		{jsondom.Bool(true), jsonpath.ConvNumber, "1"},
		{jsondom.Bool(false), jsonpath.ConvNumber, "0"},
		{jsondom.Null{}, jsonpath.ConvNumber, ""},
		{jsondom.String("a"), jsonpath.ConvString, `"a"`},
		{jsondom.Number("9"), jsonpath.ConvString, `"9"`},
		{jsondom.Bool(true), jsonpath.ConvString, `"true"`},
		{jsondom.Null{}, jsonpath.ConvString, ""},
		{jsondom.Null{}, jsonpath.ConvNone, "null"},
	}
	for _, c := range cases {
		s, _ := jsondom.ScalarOf(c.in)
		out, ok := Convert(s, c.conv)
		got := ""
		if ok {
			got = jsontext.SerializeString(out.Box())
		}
		if got != c.want {
			t.Errorf("Convert(%v, %d) = %q, want %q", c.in, c.conv, got, c.want)
		}
	}
}
