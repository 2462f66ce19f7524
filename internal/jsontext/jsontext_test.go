package jsontext

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/jsondom"
)

func TestParseScalars(t *testing.T) {
	cases := map[string]jsondom.Value{
		"null":   jsondom.Null{},
		"true":   jsondom.Bool(true),
		"false":  jsondom.Bool(false),
		"42":     jsondom.Number("42"),
		"-1.5":   jsondom.Number("-1.5"),
		"1e3":    jsondom.Number("1000"),
		`"hi"`:   jsondom.String("hi"),
		`""`:     jsondom.String(""),
		`"a\nb"`: jsondom.String("a\nb"),
		`"q\"q"`: jsondom.String(`q"q`),
		`"A"`:    jsondom.String("A"),
		`"😀"`:    jsondom.String("😀"),
		`"\/"`:   jsondom.String("/"),
	}
	for in, want := range cases {
		got, err := ParseString(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if !jsondom.Equal(got, want) {
			t.Errorf("Parse(%q) = %#v, want %#v", in, got, want)
		}
	}
}

func TestParseContainers(t *testing.T) {
	v, err := ParseString(`{"a":1,"b":[true,null,{"c":"x"}],"d":{}}`)
	if err != nil {
		t.Fatal(err)
	}
	o := v.(*jsondom.Object)
	if o.Len() != 3 {
		t.Fatalf("Len = %d", o.Len())
	}
	b, _ := o.Get("b")
	arr := b.(*jsondom.Array)
	if arr.Len() != 3 {
		t.Fatalf("array len = %d", arr.Len())
	}
	inner := arr.At(2).(*jsondom.Object)
	if c, _ := inner.Get("c"); c.(jsondom.String) != "x" {
		t.Fatal("nested get failed")
	}
	d, _ := o.Get("d")
	if d.(*jsondom.Object).Len() != 0 {
		t.Fatal("empty object")
	}
}

func TestParseWhitespace(t *testing.T) {
	v, err := ParseString(" \t\n{ \"a\" : [ 1 , 2 ] }\r\n ")
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != jsondom.KindObject {
		t.Fatal("kind")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "{", "}", "[", "]", "{]", "[}",
		`{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`, `{"a":1 "b":2}`,
		"[1,]", "[,1]", "[1 2]",
		`"abc`, `"ab\q"`, `"ab\u12"`, `"ab\uZZZZ"`, "\"a\x01b\"",
		"tru", "falsey", "nul", "nulll",
		"01", "1.", ".5", "1e", "-", "+1",
		"1 2", `{"a":1} x`,
	}
	for _, in := range bad {
		if _, err := ParseString(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
		if Valid([]byte(in)) {
			t.Errorf("Valid(%q) should be false", in)
		}
	}
}

func TestValid(t *testing.T) {
	good := []string{"{}", "[]", "0", `"x"`, "null", `{"a":[1,{"b":null}]}`}
	for _, in := range good {
		if !Valid([]byte(in)) {
			t.Errorf("Valid(%q) should be true", in)
		}
	}
}

func TestMaxDepth(t *testing.T) {
	deep := strings.Repeat("[", MaxDepth+1) + strings.Repeat("]", MaxDepth+1)
	_, err := ParseString(deep)
	if !errors.Is(err, ErrDepth) {
		t.Fatalf("err = %v, want ErrDepth", err)
	}
	ok := strings.Repeat("[", MaxDepth-1) + "1" + strings.Repeat("]", MaxDepth-1)
	if _, err := ParseString(ok); err != nil {
		t.Fatalf("depth just under limit should parse: %v", err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	docs := []string{
		`{"a":1,"b":[true,null,{"c":"x"}],"d":{}}`,
		`[]`,
		`{}`,
		`[1,2.5,-3,1e-7,"s",false]`,
		`{"k":"va\"l\\ue\n"}`,
		`{"unicode":"héllo 世界"}`,
	}
	for _, in := range docs {
		v, err := ParseString(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		out := SerializeString(v)
		v2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse of %q: %v", out, err)
		}
		if !jsondom.Equal(v, v2) {
			t.Errorf("round trip changed value: %q -> %q", in, out)
		}
	}
}

func TestSerializeCompact(t *testing.T) {
	v := MustParse(`{ "a" : [ 1 , 2 ] }`)
	if got := SerializeString(v); got != `{"a":[1,2]}` {
		t.Fatalf("Serialize = %q", got)
	}
}

func TestSerializeControlChars(t *testing.T) {
	v := jsondom.String("a\x01b")
	got := SerializeString(v)
	if got != `"a\u0001b"` {
		t.Fatalf("control char serialize = %q", got)
	}
	if _, err := ParseString(got); err != nil {
		t.Fatalf("serialized control char must reparse: %v", err)
	}
}

func TestSerializeExtendedScalars(t *testing.T) {
	o := jsondom.NewObject().
		Set("ts", jsondom.Timestamp(0)).
		Set("bin", jsondom.Binary{0xDE, 0xAD}).
		Set("dbl", jsondom.Double(2.5))
	got := SerializeString(o)
	want := `{"ts":"1970-01-01T00:00:00.000Z","bin":"dead","dbl":2.5}`
	if got != want {
		t.Fatalf("Serialize = %q, want %q", got, want)
	}
}

func TestEventStream(t *testing.T) {
	p := NewParser([]byte(`{"a":[1,"x"],"b":true}`))
	var kinds []EventKind
	for {
		ev, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ev.Kind)
		if ev.Kind == EvEOF {
			break
		}
	}
	want := []EventKind{
		EvObjectStart, EvKey, EvArrayStart, EvNumber, EvString, EvArrayEnd,
		EvKey, EvBool, EvObjectEnd, EvEOF,
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
}

func TestSkipValue(t *testing.T) {
	p := NewParser([]byte(`{"skip":{"deep":[1,2,{"x":[3]}]},"keep":42}`))
	mustNext := func() Event {
		t.Helper()
		ev, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	if ev := mustNext(); ev.Kind != EvObjectStart {
		t.Fatal("expected object start")
	}
	if ev := mustNext(); ev.Kind != EvKey || ev.Str != "skip" {
		t.Fatal("expected skip key")
	}
	first := mustNext()
	if err := p.SkipValue(first); err != nil {
		t.Fatal(err)
	}
	if ev := mustNext(); ev.Kind != EvKey || ev.Str != "keep" {
		t.Fatalf("after skip expected keep key")
	}
	if ev := mustNext(); ev.Kind != EvNumber || ev.Str != "42" {
		t.Fatal("expected 42")
	}
	// skipping a scalar is a no-op
	p2 := NewParser([]byte(`[1,2]`))
	mustNext2 := func() Event {
		ev, err := p2.Next()
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	mustNext2() // [
	first = mustNext2()
	if err := p2.SkipValue(first); err != nil {
		t.Fatal(err)
	}
	if ev := mustNext2(); ev.Kind != EvNumber || ev.Str != "2" {
		t.Fatal("scalar skip should be no-op")
	}
}

func TestSkipValueTruncated(t *testing.T) {
	p := NewParser([]byte(`[[1,2`))
	ev, err := p.Next() // outer [
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SkipValue(ev); err == nil {
		t.Fatal("skipping truncated container should fail")
	}
}

func TestEventKindString(t *testing.T) {
	for k := EvObjectStart; k <= EvEOF; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if s := EventKind(200).String(); !strings.Contains(s, "200") {
		t.Error("unknown kind should include number")
	}
}

// genValue builds a random JSON DOM for property tests.
func genValue(r *rand.Rand, depth int) jsondom.Value {
	if depth <= 0 {
		return genScalar(r)
	}
	switch r.Intn(4) {
	case 0:
		o := jsondom.NewObject()
		for i := r.Intn(5); i > 0; i-- {
			o.Set(genName(r), genValue(r, depth-1))
		}
		return o
	case 1:
		a := jsondom.NewArray()
		for i := r.Intn(5); i > 0; i-- {
			a.Append(genValue(r, depth-1))
		}
		return a
	default:
		return genScalar(r)
	}
}

func genScalar(r *rand.Rand) jsondom.Value {
	switch r.Intn(4) {
	case 0:
		return jsondom.Null{}
	case 1:
		return jsondom.Bool(r.Intn(2) == 0)
	case 2:
		return jsondom.NumberFromFloat(float64(r.Int63n(1e6)) / 100)
	default:
		return jsondom.String(genName(r))
	}
}

const nameAlpha = "abcdefgh_0123 \"\\\nüñ世"

func genName(r *rand.Rand) string {
	runes := []rune(nameAlpha)
	n := r.Intn(10)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(runes[r.Intn(len(runes))])
	}
	return sb.String()
}

func TestSerializeParsePropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := genValue(r, 4)
		out := Serialize(v)
		v2, err := Parse(out)
		if err != nil {
			t.Logf("parse error on %q: %v", out, err)
			return false
		}
		return jsondom.Equal(v, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParse(b *testing.B) {
	doc := []byte(`{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[{"name":"phone","price":100,"quantity":2},{"name":"ipad","price":350.86,"quantity":3}]}}`)
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValid(b *testing.B) {
	doc := []byte(`{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[{"name":"phone","price":100,"quantity":2},{"name":"ipad","price":350.86,"quantity":3}]}}`)
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		if !Valid(doc) {
			b.Fatal("invalid")
		}
	}
}

func TestStructureFingerprint(t *testing.T) {
	fp := func(s string) uint64 {
		t.Helper()
		h, err := StructureFingerprint([]byte(s))
		if err != nil {
			t.Fatalf("fingerprint(%q): %v", s, err)
		}
		return h
	}
	// identical structure, different scalar values: same fingerprint
	if fp(`{"a":1,"b":"x"}`) != fp(`{"a":99,"b":"zzzz"}`) {
		t.Fatal("value change altered fingerprint")
	}
	// scalar KIND changes alter the fingerprint (type generalization
	// must not be skipped)
	if fp(`{"a":1}`) == fp(`{"a":"1"}`) {
		t.Fatal("kind change not detected")
	}
	// new field alters the fingerprint
	if fp(`{"a":1}`) == fp(`{"a":1,"b":2}`) {
		t.Fatal("new field not detected")
	}
	// field name spelling matters
	if fp(`{"ab":1}`) == fp(`{"ba":1}`) {
		t.Fatal("name permutation collided")
	}
	// array lengths with identical element structure: distinct docs but
	// equal DataGuide contribution per element; fingerprints differ,
	// which only costs an extra analysis, never correctness
	_ = fp(`{"a":[1,2]}`)
	// invalid text errors
	if _, err := StructureFingerprint([]byte(`{oops`)); err == nil {
		t.Fatal("invalid text should fail")
	}
}

func TestNoStringsMode(t *testing.T) {
	p := NewParser([]byte(`{"key":"value \n escaped","n":1}`))
	p.NoStrings = true
	sawKey := false
	for {
		ev, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EvEOF {
			break
		}
		if ev.Kind == EvKey {
			sawKey = true
			if ev.Str != "" {
				t.Fatalf("NoStrings leaked key %q", ev.Str)
			}
			if p.SpanEnd() <= p.SpanStart() {
				t.Fatal("key span empty")
			}
		}
		if ev.Kind == EvString && ev.Str != "" {
			t.Fatal("NoStrings leaked string value")
		}
		if ev.Kind == EvNumber && ev.Str != "" {
			t.Fatal("NoStrings leaked number literal")
		}
	}
	if !sawKey {
		t.Fatal("no key event")
	}
	// escape validation still applies
	p2 := NewParser([]byte(`{"k":"bad \q"}`))
	p2.NoStrings = true
	for i := 0; i < 10; i++ {
		if _, err := p2.Next(); err != nil {
			return // expected
		}
	}
	t.Fatal("invalid escape accepted in NoStrings mode")
}

func TestResetReusesParser(t *testing.T) {
	var p Parser
	for _, doc := range []string{`{"a":[1,{"b":2}]}`, `[true]`, `"x"`} {
		p.Reset([]byte(doc))
		for {
			ev, err := p.Next()
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			if ev.Kind == EvEOF {
				break
			}
		}
	}
	// a reset clears NoStrings and any half-read state
	p.NoStrings = true
	p.Reset([]byte(`{"k":"v"}`))
	if _, err := p.Next(); err != nil {
		t.Fatal(err)
	}
	if ev, err := p.Next(); err != nil || ev.Str != "k" {
		t.Fatalf("key after Reset = %q, %v", ev.Str, err)
	}
}

func TestResetStringAliases(t *testing.T) {
	src := `{"name":"phone","price":12.5,"esc":"a\nb"}`
	var p Parser
	p.ResetString(src)
	inSrc := func(s string) bool {
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return at >= lo && at < lo+uintptr(len(src))
	}
	var got []string
	for {
		ev, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EvEOF {
			break
		}
		if ev.Str == "" {
			continue
		}
		got = append(got, ev.Str)
		// escaped strings are decoded into fresh memory; the rest are
		// substrings of the source
		if want := ev.Str != "a\nb"; inSrc(ev.Str) != want {
			t.Errorf("%q aliases the source = %v, want %v", ev.Str, !want, want)
		}
	}
	want := []string{"name", "phone", "price", "12.5", "esc", "a\nb"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("strings = %q, want %q", got, want)
	}
}

func TestSpanEquals(t *testing.T) {
	cases := []struct {
		doc, name string
		want      bool
	}{
		{`{"abc":1}`, "abc", true},
		{`{"abc":1}`, "ab", false},
		{`{"abc":1}`, "abcd", false},
		{`{"":1}`, "", true},
		{`{"k\u0041":1}`, "kA", true},
		{`{"k\u0041":1}`, `k\u0041`, false},
		{`{"a\"b":1}`, `a"b`, true},
		{`{"😀":1}`, "😀", true},
	}
	for _, c := range cases {
		p := NewParser([]byte(c.doc))
		p.NoStrings = true
		if _, err := p.Next(); err != nil {
			t.Fatal(err)
		}
		if ev, err := p.Next(); err != nil || ev.Kind != EvKey {
			t.Fatalf("%s: key = %v, %v", c.doc, ev.Kind, err)
		}
		if got := p.SpanEquals(c.name); got != c.want {
			t.Errorf("%s: SpanEquals(%q) = %v, want %v", c.doc, c.name, got, c.want)
		}
	}
}

// TestSkipValueNoStrings: skipping scans without materializing (no
// allocation), still rejects malformed tokens, and restores the
// caller's NoStrings mode.
func TestSkipValueNoStrings(t *testing.T) {
	doc := []byte(`[{"k":"a long string value","n":[1.5e3,-2,"x\ty"]},"after"]`)
	var p Parser
	skip := func() {
		p.Reset(doc)
		if _, err := p.Next(); err != nil { // [
			t.Fatal(err)
		}
		first, err := p.Next() // {
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SkipValue(first); err != nil {
			t.Fatal(err)
		}
	}
	skip()
	if ev, err := p.Next(); err != nil || ev.Str != "after" || p.NoStrings {
		t.Fatalf("after skip: %q, %v, NoStrings=%v", ev.Str, err, p.NoStrings)
	}
	if n := testing.AllocsPerRun(50, skip); n != 0 {
		t.Errorf("SkipValue: %.1f allocs, want 0", n)
	}
	for _, bad := range []string{`[{"k":"bad \q"}]`, `[{"k":01}]`, "[{\"k\":\"ctl\x01\"}]", `[{"k":1e}]`, `[{"k":"\u12"}]`} {
		p.Reset([]byte(bad))
		_, _ = p.Next()
		first, _ := p.Next()
		if err := p.SkipValue(first); err == nil {
			t.Errorf("SkipValue accepted %s", bad)
		}
	}
}

func TestReadValue(t *testing.T) {
	p := NewParser([]byte(`{"skip":"s","keep":{"a":["x",1]}}`))
	p.NoStrings = true
	for i := 0; i < 4; i++ { // {, key, "s", key
		if _, err := p.Next(); err != nil {
			t.Fatal(err)
		}
	}
	first, err := p.Next()
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.ReadValue(first)
	if err != nil || SerializeString(v) != `{"a":["x",1]}` {
		t.Fatalf("ReadValue = %v, %v", v, err)
	}
}

// TestStringByteClasses: for every byte value inside a string, the
// decoding and the validating scanners agree with the JSON grammar:
// control characters are rejected, a quote ends the string, a
// backslash starts an escape, and every other byte stands for itself.
func TestStringByteClasses(t *testing.T) {
	for c := 0; c < 256; c++ {
		doc := []byte{'"', 'a', byte(c), 'b', '"'}
		for _, noStrings := range []bool{false, true} {
			p := NewParser(doc)
			p.NoStrings = noStrings
			ev, err := p.Next()
			switch {
			case c < 0x20:
				if err == nil {
					t.Errorf("byte %#x (NoStrings=%v): accepted", c, noStrings)
				}
			case c == '"':
				// "a" then trailing b" is an error after the value
				if err != nil || ev.Kind != EvString {
					t.Errorf("byte %#x (NoStrings=%v): %v", c, noStrings, err)
				}
			case c == '\\':
				// \b is the backspace escape
				if err != nil || (!noStrings && ev.Str != "a\b") {
					t.Errorf("byte %#x (NoStrings=%v): %q, %v", c, noStrings, ev.Str, err)
				}
			default:
				if err != nil || (!noStrings && ev.Str != string(doc[1:4])) {
					t.Errorf("byte %#x (NoStrings=%v): %q, %v", c, noStrings, ev.Str, err)
				}
			}
		}
	}
}
