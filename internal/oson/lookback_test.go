package oson

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/jsontext"
	"repro/internal/workload"
)

// lookbackNames are NOBENCH field names of every kind: common fields
// present in every document, dynamically typed ones, nested-object
// names, sparse fields present in one cluster only, and an absent one.
var lookbackNames = []string{
	"str1", "num", "bool", "dyn1", "dyn2", "nested_obj", "nested_arr", "str",
	"sparse_000", "sparse_005", "sparse_110", "sparse_550", "sparse_999", "absent",
}

// noBenchBufs encodes the first n NOBENCH documents.
func noBenchBufs(t *testing.T, n int) [][]byte {
	t.Helper()
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = MustEncode(workload.GenNoBench(1, i))
	}
	return bufs
}

// checkResolve asserts that every ref resolves in d exactly as a full
// dictionary lookup does.
func checkResolve(t *testing.T, d *Doc, refs []*FieldRef, what string) {
	for _, r := range refs {
		id, ok := r.Resolve(d)
		wantID, wantOK := d.LookupID(r.H, r.Name)
		if ok != wantOK || (ok && id != wantID) {
			t.Errorf("%s: Resolve(%q) = %d,%v; LookupID = %d,%v", what, r.Name, id, ok, wantID, wantOK)
		}
	}
}

func newRefs() []*FieldRef {
	refs := make([]*FieldRef, len(lookbackNames))
	for i, n := range lookbackNames {
		refs[i] = NewFieldRef(n)
	}
	return refs
}

// TestFieldRefLookbackHeterogeneous: over a heterogeneous NOBENCH
// stream the look-back must agree with LookupID on every document,
// whether its revalidation hits or misses.
func TestFieldRefLookbackHeterogeneous(t *testing.T) {
	refs := newRefs()
	for i, buf := range noBenchBufs(t, 300) {
		checkResolve(t, MustParse(buf), refs, fmt.Sprintf("doc %d", i))
	}
}

// TestFieldRefLookbackReusedDoc: one Doc struct re-pointed by
// ParseInto at documents whose dictionaries differ — same pointer,
// different ids — must never serve the previous document's id.
func TestFieldRefLookbackReusedDoc(t *testing.T) {
	refs := newRefs()
	var d Doc
	bufs := noBenchBufs(t, 200)
	// hand-built dictionaries where the same name moves between ids and
	// the previous id stays in range under a different name
	for _, text := range []string{
		`{"str1":1,"num":2,"dyn1":3}`,
		`{"a":1,"b":2,"c":3,"num":4,"str1":5}`,
		`{"num":1}`,
		`{"zzz":1,"yyy":2,"xxx":3}`,
		`{"str1":"x","nested_obj":{"str":"y"}}`,
	} {
		bufs = append(bufs, MustEncode(jsontext.MustParse(text)))
	}
	for i, buf := range bufs {
		if err := ParseInto(&d, buf); err != nil {
			t.Fatal(err)
		}
		checkResolve(t, &d, refs, fmt.Sprintf("doc %d", i))
		checkResolve(t, &d, refs, fmt.Sprintf("doc %d again", i))
	}
}

// TestFieldRefLookbackConcurrent: FieldRefs are shared plan state, so
// parallel workers resolve them concurrently against their own reused
// Docs; run under -race this also checks the look-back word is the
// only shared state.
func TestFieldRefLookbackConcurrent(t *testing.T) {
	refs := newRefs()
	bufs := noBenchBufs(t, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var d Doc
			for k := 0; k < 3; k++ {
				for i := w; i < len(bufs); i += 4 {
					if err := ParseInto(&d, bufs[i]); err != nil {
						t.Error(err)
						return
					}
					checkResolve(t, &d, refs, fmt.Sprintf("worker %d doc %d", w, i))
				}
			}
		}(w)
	}
	wg.Wait()
}
