package sqljson

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bson"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/pathengine"
)

// nbDoc is a small NOBENCH-shaped document (§6.4) with a per-i shape.
func nbDoc(i int) jsondom.Value {
	return jsontext.MustParse(fmt.Sprintf(`{"str1":"GBRDC%07d","num":%d,"sparse_%03d":"x",
		"nested_arr":["alpha","bravo","w%d"],"nested_obj":{"str":"s%d","num":%d}}`, i, i, i%7, i, i, i%100))
}

func osonDatum(v jsondom.Value) jsondom.Value { return jsondom.Binary(oson.MustEncode(v)) }

// TestBinderZeroAlloc: once warm, binding an OSON datum and running
// JSON_EXISTS with a filter path or a field-chain JSON_VALUE over it
// allocates nothing — alternating two documents, so every Bind really
// parses. (The selected number is a small integer, which boxes to a
// shared value; any other scalar costs only its own box.)
func TestBinderZeroAlloc(t *testing.T) {
	docs := []jsondom.Value{osonDatum(nbDoc(1)), osonDatum(nbDoc(2))}
	filter := pathengine.MustCompile(`$.nested_arr[*]?(@ == "alpha")`)
	chain := pathengine.MustCompile(`$.nested_obj.num`)
	var b Binder
	var i int
	exists := func() {
		d, err := b.Bind(docs[i%2])
		i++
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := d.Exists(filter); err != nil || !ok {
			t.Fatalf("exists = %v, %v", ok, err)
		}
	}
	value := func() {
		d, err := b.Bind(docs[i%2])
		i++
		if err != nil {
			t.Fatal(err)
		}
		if v, err := d.Value(chain, RetNumber); err != nil || v.Kind() != jsondom.KindNumber {
			t.Fatalf("value = %v, %v", v, err)
		}
	}
	for name, f := range map[string]func(){"JSON_EXISTS filter": exists, "JSON_VALUE chain": value} {
		f() // warm the scratch freelists
		f()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %.1f allocs per bound call, want 0", name, n)
		}
	}
}

// bindValue binds v and evaluates JSON_VALUE(path) through b.
func bindValue(t *testing.T, b *Binder, v jsondom.Value, path string) (jsondom.Value, error) {
	t.Helper()
	d, err := b.Bind(v)
	if err != nil {
		return nil, err
	}
	return d.Value(pathengine.MustCompile(path), RetAny)
}

// oneShotValue is bindValue over a one-shot FromDatum document, the
// reference a binder must agree with.
func oneShotValue(t *testing.T, v jsondom.Value, path string) jsondom.Value {
	t.Helper()
	d, err := FromDatum(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Value(pathengine.MustCompile(path), RetAny)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestBinderReuse(t *testing.T) {
	a, c := osonDatum(nbDoc(3)), osonDatum(nbDoc(4))

	t.Run("alternating", func(t *testing.T) {
		var b Binder
		for k := 0; k < 6; k++ {
			v := []jsondom.Value{a, c}[k%2]
			got, err := bindValue(t, &b, v, "$.str1")
			if err != nil {
				t.Fatal(err)
			}
			if want := oneShotValue(t, v, "$.str1"); got != want {
				t.Fatalf("bind %d: %v, want %v", k, got, want)
			}
		}
		if b.parses != 6 {
			t.Errorf("parses = %d, want 6 (every bind switches buffers)", b.parses)
		}
	})

	t.Run("same buffer parses once", func(t *testing.T) {
		var b Binder
		for _, p := range []string{"$.str1", "$.num", "$.nested_obj.str", "$.sparse_003"} {
			got, err := bindValue(t, &b, a, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := oneShotValue(t, a, p); got != want {
				t.Fatalf("%s: %v, want %v", p, got, want)
			}
		}
		if b.parses != 1 {
			t.Errorf("parses = %d, want 1", b.parses)
		}
	})

	t.Run("byte-equal distinct buffers", func(t *testing.T) {
		var b Binder
		dup := jsondom.Binary(append([]byte(nil), a.(jsondom.Binary)...))
		for _, v := range []jsondom.Value{a, dup} {
			got, err := bindValue(t, &b, v, "$.nested_obj.num")
			if err != nil {
				t.Fatal(err)
			}
			if want := oneShotValue(t, a, "$.nested_obj.num"); got != want {
				t.Fatalf("%v, want %v", got, want)
			}
		}
		if b.parses != 2 {
			t.Errorf("parses = %d, want 2", b.parses)
		}
	})

	t.Run("corrupt after good", func(t *testing.T) {
		good := a.(jsondom.Binary)
		corrupt := []jsondom.Value{
			good[:len(good)-1], // same backing array, shorter: length check fails
			jsondom.Binary(append([]byte(oson.Magic), 0, 0, 0)), // truncated header
		}
		for i, bad := range corrupt {
			var b Binder
			if _, err := bindValue(t, &b, a, "$.str1"); err != nil {
				t.Fatal(err)
			}
			d, err := b.Bind(bad)
			if !errors.Is(err, oson.ErrCorrupt) || d != nil {
				t.Fatalf("corrupt %d: Bind = %v, %v; want nil, ErrCorrupt", i, d, err)
			}
			// the good buffer binds again (and re-parses: the failure
			// cleared the cached parse)
			got, err := bindValue(t, &b, a, "$.str1")
			if err != nil || got != oneShotValue(t, a, "$.str1") {
				t.Fatalf("corrupt %d: rebind good = %v, %v", i, got, err)
			}
			if b.parses != 2 {
				t.Errorf("corrupt %d: parses = %d, want 2", i, b.parses)
			}
		}
	})

	t.Run("text bson dom fall through", func(t *testing.T) {
		dom := nbDoc(5)
		others := map[string]jsondom.Value{
			"text": jsondom.String(jsontext.SerializeString(dom)),
			"bson": jsondom.Binary(bson.MustEncode(dom)),
			"dom":  dom,
		}
		paths := []string{"$.str1", "$.nested_obj.num", `$.nested_arr[*]?(@ == "w5")`, "$.nested_arr[1]"}
		var b Binder
		for name, v := range others {
			for _, p := range paths {
				// interleave an OSON bind so a cached parse is live
				if _, err := bindValue(t, &b, a, "$.str1"); err != nil {
					t.Fatal(err)
				}
				got, err := bindValue(t, &b, v, p)
				if err != nil {
					t.Fatalf("%s %s: %v", name, p, err)
				}
				if want := oneShotValue(t, v, p); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %s: %v, want %v", name, p, got, want)
				}
				d, _ := b.Bind(v)
				if d.Encoding() == EncOSON {
					t.Fatalf("%s bound as OSON", name)
				}
				gotEx, err := d.Exists(pathengine.MustCompile(p))
				ref, _ := FromDatum(v)
				wantEx, _ := ref.Exists(pathengine.MustCompile(p))
				if err != nil || gotEx != wantEx {
					t.Fatalf("%s exists %s: %v, %v; want %v", name, p, gotEx, err, wantEx)
				}
			}
		}
		if b.parses != 1 {
			t.Errorf("parses = %d, want 1 (the OSON buffer stayed cached across other encodings)", b.parses)
		}
	})

	t.Run("json_table unchanged", func(t *testing.T) {
		def := poTableDef()
		es := NewExpandState(def)
		po := jsontext.MustParse(poText)
		stream := []jsondom.Value{
			osonDatum(po),
			jsondom.String(poText),
			jsondom.Binary(bson.MustEncode(po)),
			osonDatum(jsontext.MustParse(`{"purchaseOrder":{"id":2,"items":[]}}`)),
			po,
		}
		for i, v := range stream {
			ref, err := FromDatum(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := def.Expand(ref)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // second pass rebinds the same buffer
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
				if renderRows(got) != renderRows(want) {
					t.Fatalf("doc %d pass %d:\n%s\nwant:\n%s", i, pass, renderRows(got), renderRows(want))
				}
			}
		}
		if s := es.Stats(); s.Docs != 10 || s.ParseReuse != 2 {
			t.Errorf("stats = %+v, want 10 docs and 2 OSON parses", s)
		}
	})
}
