package sqljson

import (
	"reflect"
	"testing"

	"repro/internal/bson"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/pathengine"
)

const poText = `{"purchaseOrder":{"id":1,"podate":"2014-09-08","foreign_id":"CDEG35",
	"items":[{"name":"phone","price":100,"quantity":2,
	          "parts":[{"partName":"case","partQuantity":"1"},
	                   {"partName":"charger","partQuantity":"2"}]},
	         {"name":"ipad","price":350.86,"quantity":3}],
	"discount_items":[{"dis_itemName":"bundle","dis_itemPrice":42}]}}`

// docs returns the same document in all three encodings.
func docs(t *testing.T) map[string]*Document {
	t.Helper()
	dom := jsontext.MustParse(poText)
	textDoc, err := FromDatum(jsondom.String(jsontext.SerializeString(dom)))
	if err != nil {
		t.Fatal(err)
	}
	osonDoc, err := FromDatum(jsondom.Binary(oson.MustEncode(dom)))
	if err != nil {
		t.Fatal(err)
	}
	bsonDoc, err := FromDatum(jsondom.Binary(bson.MustEncode(dom)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Document{"text": textDoc, "oson": osonDoc, "bson": bsonDoc}
}

func TestFromDatumEncodings(t *testing.T) {
	ds := docs(t)
	if ds["text"].Encoding() != EncText {
		t.Fatal("text encoding")
	}
	if ds["oson"].Encoding() != EncOSON {
		t.Fatal("oson encoding")
	}
	if ds["bson"].Encoding() != EncBSON {
		t.Fatal("bson encoding")
	}
	if _, err := FromDatum(jsondom.Number("1")); err == nil {
		t.Fatal("number datum should fail")
	}
	if _, err := FromDatum(jsondom.Binary{1, 2, 3}); err == nil {
		t.Fatal("garbage binary should fail")
	}
	d := FromDOM(jsontext.MustParse(`{"a":1}`))
	if d.Encoding() != EncDOM {
		t.Fatal("dom encoding")
	}
}

func TestJSONValueAcrossEncodings(t *testing.T) {
	c := pathengine.MustCompile("$.purchaseOrder.id")
	for name, d := range docs(t) {
		v, err := d.Value(c, RetNumber)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.(jsondom.Number) != "1" {
			t.Fatalf("%s: id = %v", name, v)
		}
	}
}

func TestJSONValueSemantics(t *testing.T) {
	d := docs(t)["text"]
	// multiple matches -> NULL
	v, err := d.Value(pathengine.MustCompile("$.purchaseOrder.items[*].name"), RetAny)
	if err != nil || v.Kind() != jsondom.KindNull {
		t.Fatalf("multi-match = %v, %v", v, err)
	}
	// container match -> NULL
	v, err = d.Value(pathengine.MustCompile("$.purchaseOrder.items"), RetAny)
	if err != nil || v.Kind() != jsondom.KindNull {
		t.Fatalf("container = %v, %v", v, err)
	}
	// no match -> NULL
	v, err = d.Value(pathengine.MustCompile("$.nope"), RetAny)
	if err != nil || v.Kind() != jsondom.KindNull {
		t.Fatalf("no match = %v, %v", v, err)
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		in   jsondom.Value
		rt   ReturnType
		want jsondom.Value
	}{
		{jsondom.Number("5"), RetAny, jsondom.Number("5")},
		{jsondom.Number("5"), RetNumber, jsondom.Number("5")},
		{jsondom.Double(2.5), RetNumber, jsondom.Number("2.5")},
		{jsondom.String("42"), RetNumber, jsondom.Number("42")},
		{jsondom.String("nope"), RetNumber, jsondom.Null{}},
		{jsondom.Bool(true), RetNumber, jsondom.Number("1")},
		{jsondom.Bool(false), RetNumber, jsondom.Number("0")},
		{jsondom.Number("5"), RetVarchar, jsondom.String("5")},
		{jsondom.String("x"), RetVarchar, jsondom.String("x")},
		{jsondom.Bool(true), RetVarchar, jsondom.String("true")},
		{jsondom.Bool(true), RetBool, jsondom.Bool(true)},
		{jsondom.String("TRUE"), RetBool, jsondom.Bool(true)},
		{jsondom.String("false"), RetBool, jsondom.Bool(false)},
		{jsondom.String("x"), RetBool, jsondom.Null{}},
		{jsondom.Number("1"), RetBool, jsondom.Null{}},
		{jsondom.Null{}, RetNumber, jsondom.Null{}},
	}
	for i, c := range cases {
		got, err := Coerce(c.in, c.rt)
		if err != nil || !jsondom.Equal(got, c.want) {
			t.Errorf("case %d: Coerce(%v, %d) = %v, %v; want %v", i, c.in, c.rt, got, err, c.want)
		}
	}
}

func TestJSONExists(t *testing.T) {
	for name, d := range docs(t) {
		ok, err := d.Exists(pathengine.MustCompile("$.purchaseOrder.foreign_id"))
		if err != nil || !ok {
			t.Fatalf("%s: exists = %v, %v", name, ok, err)
		}
		ok, err = d.Exists(pathengine.MustCompile("$.purchaseOrder.nothing"))
		if err != nil || ok {
			t.Fatalf("%s: not exists = %v, %v", name, ok, err)
		}
		ok, err = d.Exists(pathengine.MustCompile(`$.purchaseOrder.items[*]?(@.price > 200)`))
		if err != nil || !ok {
			t.Fatalf("%s: filter exists = %v, %v", name, ok, err)
		}
	}
}

func TestJSONQuery(t *testing.T) {
	d := docs(t)["text"]
	v, err := d.Query(pathengine.MustCompile("$.purchaseOrder.items[0].parts"))
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"partName":"case","partQuantity":"1"},{"partName":"charger","partQuantity":"2"}]`
	if string(v.(jsondom.String)) != want {
		t.Fatalf("query = %s", v)
	}
	// no match -> NULL
	v, err = d.Query(pathengine.MustCompile("$.zzz"))
	if err != nil || v.Kind() != jsondom.KindNull {
		t.Fatalf("no match = %v, %v", v, err)
	}
	// multiple matches -> array wrapper
	v, err = d.Query(pathengine.MustCompile("$.purchaseOrder.items[*].name"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v.(jsondom.String)) != `["phone","ipad"]` {
		t.Fatalf("wrapped = %s", v)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World-42! foo_bar")
	want := []string{"hello", "world", "42", "foo", "bar"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v", got)
	}
	if toks := Tokenize(""); len(toks) != 0 {
		t.Fatal("empty tokenize")
	}
}

func TestTextContains(t *testing.T) {
	for name, d := range docs(t) {
		ok, err := d.TextContains(pathengine.MustCompile("$.purchaseOrder"), "charger")
		if err != nil || !ok {
			t.Fatalf("%s: contains charger = %v, %v", name, ok, err)
		}
		ok, err = d.TextContains(pathengine.MustCompile("$.purchaseOrder"), "PHONE")
		if err != nil || !ok {
			t.Fatalf("%s: case-insensitive = %v, %v", name, ok, err)
		}
		ok, err = d.TextContains(pathengine.MustCompile("$.purchaseOrder"), "phon")
		if err != nil || ok {
			t.Fatalf("%s: partial word should not match = %v, %v", name, ok, err)
		}
		ok, err = d.TextContains(pathengine.MustCompile("$.purchaseOrder.items[*].name"), "ipad")
		if err != nil || !ok {
			t.Fatalf("%s: scoped = %v, %v", name, ok, err)
		}
	}
}

// poTableDef returns the DMDV-style JSON_TABLE definition matching
// Table 8's items branch.
func poTableDef() *TableDef {
	return &TableDef{
		RowPath: pathengine.MustCompile("$"),
		Columns: []TableColumn{
			{Name: "id", Type: RetNumber, Path: pathengine.MustCompile("$.purchaseOrder.id")},
			{Name: "podate", Type: RetVarchar, Path: pathengine.MustCompile("$.purchaseOrder.podate")},
		},
		Nested: []NestedPath{
			{
				Path: pathengine.MustCompile("$.purchaseOrder.items[*]"),
				Columns: []TableColumn{
					{Name: "name", Type: RetVarchar, Path: pathengine.MustCompile("$.name")},
					{Name: "price", Type: RetNumber, Path: pathengine.MustCompile("$.price")},
				},
				Nested: []NestedPath{{
					Path: pathengine.MustCompile("$.parts[*]"),
					Columns: []TableColumn{
						{Name: "partName", Type: RetVarchar, Path: pathengine.MustCompile("$.partName")},
					},
				}},
			},
			{
				Path: pathengine.MustCompile("$.purchaseOrder.discount_items[*]"),
				Columns: []TableColumn{
					{Name: "dis_itemName", Type: RetVarchar, Path: pathengine.MustCompile("$.dis_itemName")},
					{Name: "dis_itemPrice", Type: RetNumber, Path: pathengine.MustCompile("$.dis_itemPrice")},
				},
			},
		},
	}
}

func TestJSONTableOutputColumns(t *testing.T) {
	def := poTableDef()
	cols := def.OutputColumns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	want := []string{"id", "podate", "name", "price", "partName", "dis_itemName", "dis_itemPrice"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("columns = %v", names)
	}
}

func TestJSONTableExpand(t *testing.T) {
	def := poTableDef()
	for name, d := range docs(t) {
		rows, err := def.Expand(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// items branch: phone x 2 parts = 2 rows, ipad (no parts) = 1 row
		// discount branch: 1 row (union join) => 4 rows total
		if len(rows) != 4 {
			t.Fatalf("%s: rows = %d:\n%s", name, len(rows), renderRows(rows))
		}
		// every row repeats the master columns (denormalization)
		for _, r := range rows {
			if r[0].(jsondom.Number) != "1" {
				t.Fatalf("%s: master id not repeated: %v", name, r)
			}
		}
		// union join: discount row has NULL item columns and vice versa
		last := rows[3]
		if last[2].Kind() != jsondom.KindNull || last[5].(jsondom.String) != "bundle" {
			t.Fatalf("%s: union join row wrong: %v", name, last)
		}
		first := rows[0]
		if first[2].(jsondom.String) != "phone" || first[4].(jsondom.String) != "case" ||
			first[5].Kind() != jsondom.KindNull {
			t.Fatalf("%s: first row wrong: %v", name, first)
		}
		// outer join: ipad row survives with NULL partName
		ipad := rows[2]
		if ipad[2].(jsondom.String) != "ipad" || ipad[4].Kind() != jsondom.KindNull {
			t.Fatalf("%s: outer join row wrong: %v", name, ipad)
		}
	}
}

func renderRows(rows [][]jsondom.Value) string {
	out := ""
	for _, r := range rows {
		arr := jsondom.NewArray(r...)
		out += jsontext.SerializeString(arr) + "\n"
	}
	return out
}

func TestJSONTableEmptyDoc(t *testing.T) {
	def := poTableDef()
	d := FromDOM(jsontext.MustParse(`{}`))
	rows, err := def.Expand(d)
	if err != nil {
		t.Fatal(err)
	}
	// one row, all NULL (outer-join semantics at every level)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, v := range rows[0] {
		if v.Kind() != jsondom.KindNull {
			t.Fatalf("expected all NULL: %v", rows[0])
		}
	}
}

func TestJSONTableRowPathMultiMatch(t *testing.T) {
	// a row pattern over an array produces one row group per element
	def := &TableDef{
		RowPath: pathengine.MustCompile("$.purchaseOrder.items[*]"),
		Columns: []TableColumn{
			{Name: "name", Type: RetVarchar, Path: pathengine.MustCompile("$.name")},
		},
	}
	for name, d := range docs(t) {
		rows, err := def.Expand(d)
		if err != nil || len(rows) != 2 {
			t.Fatalf("%s: rows=%d err=%v", name, len(rows), err)
		}
		if rows[1][0].(jsondom.String) != "ipad" {
			t.Fatalf("%s: %v", name, rows[1])
		}
	}
}

func BenchmarkExpandText(b *testing.B) {
	d := jsondom.String(jsontext.SerializeString(jsontext.MustParse(poText)))
	def := poTableDef()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := FromDatum(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := def.Expand(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpandOson(b *testing.B) {
	d := jsondom.Binary(oson.MustEncode(jsontext.MustParse(poText)))
	def := poTableDef()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := FromDatum(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := def.Expand(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExpandStateReadColumns checks column pruning in the ExpandState:
// for every read mask, the rows keep their number and order (outer and
// union joins included), read columns hold what full expansion gives,
// and unread ones are NULL.
func TestExpandStateReadColumns(t *testing.T) {
	def := poTableDef()
	width := len(def.OutputColumns())
	es := NewExpandState(def)
	dom := jsontext.MustParse(poText)
	datums := map[string]jsondom.Value{
		"text": jsondom.String(poText),
		"oson": jsondom.Binary(oson.MustEncode(dom)),
		"bson": jsondom.Binary(bson.MustEncode(dom)),
	}
	for name, v := range datums {
		d, err := FromDatum(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := def.Expand(d)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 1<<width; mask++ {
			read := make([]bool, width)
			for i := range read {
				read[i] = mask&(1<<i) != 0
			}
			es.SetReadColumns(read)
			if err := es.Bind(v); err != nil {
				t.Fatal(err)
			}
			var got [][]jsondom.Value
			if err := es.Expand(func(row []jsondom.Value) error {
				got = append(got, append([]jsondom.Value(nil), row...))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s mask %b: %d rows, want %d", name, mask, len(got), len(want))
			}
			for r := range want {
				for c := range read {
					w := want[r][c]
					if !read[c] {
						w = jsondom.Null{}
					}
					if !jsondom.Equal(got[r][c], w) {
						t.Fatalf("%s mask %b row %d col %d = %v, want %v", name, mask, r, c, got[r][c], w)
					}
				}
			}
		}
	}
	es.SetReadColumns(nil)
}
