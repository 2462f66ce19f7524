// Package oson implements the OSON binary JSON format of §4: a
// self-contained, compact tree encoding designed for rapid SQL/JSON
// path navigation directly over the serialized bytes.
//
// A document is divided into three segments (§4.2, Figure 2):
//
//	header | field-id-name dictionary | tree-node navigation | leaf values
//
// Dictionary segment: each distinct field name is stored once; entries
// are sorted by a 32-bit hash of the name, and the ordinal position of
// an entry is the *field name identifier* used everywhere else. Name
// lookup = hash + binary search + collision check (§4.2.1).
//
// Tree-node navigation segment: object, array and scalar nodes
// addressed by byte offset. Object children are (field id, child
// offset) pairs sorted by field id, enabling binary search; array
// children are positionally indexed offsets (§4.2.2).
//
// Leaf-scalar-value segment: concatenated scalar payloads; numbers use
// the order-preserving decnum encoding (the Oracle NUMBER analog),
// matching the third design criterion of §4.1 (§4.2.3).
package oson

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"unsafe"

	"repro/internal/decnum"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
)

// zstr reinterprets a slice of a document's backing buffer as a string
// without copying. Safe because parsed OSON buffers are immutable for
// the life of the Doc (the package-level contract: callers hand Parse a
// buffer and never write it again — table storage keeps encoded
// documents immutable), and because strings produced this way never
// outlive the buffer they alias: they flow into jsondom values whose
// retention is bounded by the storage row's.
func zstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Magic identifies OSON buffers produced by this encoder.
const Magic = "OSN1"

// header layout:
//
//	0..3   magic
//	4      flags: bits 1-0 tree-offset width class, 3-2 value-offset
//	       width class, 5-4 field-id width class (class c => 1<<c bytes)
//	5..8   dictOff  u32 (from buffer start)
//	9..12  treeOff  u32
//	13..16 valOff   u32
//	17..20 rootOff  u32 (relative to treeOff)
//	21..24 totalLen u32
const headerSize = 25

// Node kinds in the tree segment header byte (bits 7-6).
const (
	nkObject = 0
	nkArray  = 1
	nkScalar = 2
)

// Scalar subtypes (bits 5-3 of a scalar node header).
const (
	stNull = iota
	stFalse
	stTrue
	stNumber
	stDouble
	stString
	stTimestamp
	stBinary
)

// ErrCorrupt reports a structurally invalid OSON buffer.
var ErrCorrupt = errors.New("oson: corrupt document")

// ErrNotScalar is returned by scalar accessors on container nodes.
var ErrNotScalar = errors.New("oson: node is not a scalar")

// ErrUpdateTooLarge is returned by UpdateScalar when the replacement
// payload does not fit the existing slot; OSON partial update supports
// in-place changes of existing leaf values only (§4.2.3).
var ErrUpdateTooLarge = errors.New("oson: replacement value does not fit in place")

// FieldID is a field name identifier: the ordinal of the name's entry
// in the hash-sorted dictionary.
type FieldID uint32

// NodeAddr is a tree node address: the node's byte offset within the
// tree-node navigation segment.
type NodeAddr uint32

// Hash is the dictionary hash function (FNV-1a 32) applied to field
// names. SQL compilation precomputes it for path steps (§4.2.1).
func Hash(name string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return h
}

// widthOf returns the byte width for a size class.
func widthOf(class byte) int { return 1 << class }

// classFor returns the smallest width class whose max value covers n.
func classFor(n int) byte {
	switch {
	case n <= math.MaxUint8:
		return 0
	case n <= math.MaxUint16:
		return 1
	default:
		return 2
	}
}

// ---------------------------------------------------------------------------
// Encoder

type encoder struct {
	names   []dictEntry
	nameIDs map[string]FieldID
	// sharedDict, when set, supplies stable field ids and suppresses
	// the per-document dictionary segment (OSON set encoding, §7).
	sharedDict *SharedDict

	wt, wv, wf int // widths in bytes

	tree []byte
	vals []byte
	// valDedup maps (scalar subtype | payload) to the offset of an
	// identical, already-written value-segment slot. Repetitive
	// collections (sensor readings, archives) share leaf payloads,
	// shrinking the leaf-scalar-value segment; decoding is unaffected.
	valDedup map[string]int
	// entryScratch is a stack-disciplined arena for writeNode's
	// per-object (field id, child) sort buffers; see writeNode.
	entryScratch []objEntry
}

// objEntry pairs a field id with its value for the per-object child
// sort in writeNode.
type objEntry struct {
	id FieldID
	v  jsondom.Value
}

type dictEntry struct {
	hash uint32
	name string
}

// encoderPool recycles encoder state — dictionary slices, tree/value
// buffers, dedup maps, sort scratch — across Encode calls. Bulk loads
// encode thousands of similar documents back to back, so the steady
// state allocates nothing but the output buffer (which escapes to the
// caller and cannot be pooled).
var encoderPool = sync.Pool{New: func() any {
	return &encoder{nameIDs: make(map[string]FieldID), valDedup: make(map[string]int)}
}}

func getEncoder(dict *SharedDict) *encoder {
	enc := encoderPool.Get().(*encoder)
	enc.sharedDict = dict
	return enc
}

func putEncoder(enc *encoder) {
	enc.names = enc.names[:0]
	clear(enc.nameIDs)
	enc.sharedDict = nil
	enc.wt, enc.wv, enc.wf = 0, 0, 0
	enc.tree = enc.tree[:0]
	enc.vals = enc.vals[:0]
	clear(enc.valDedup)
	enc.entryScratch = enc.entryScratch[:0]
	encoderPool.Put(enc)
}

// measurerPool recycles the width-fixpoint loop's dedup-tracking map.
var measurerPool = sync.Pool{New: func() any {
	return &measurer{seen: make(map[string]bool)}
}}

// Encode serializes a JSON DOM value to OSON bytes. Any kind may be the
// root, matching the JSON data model.
func Encode(v jsondom.Value) ([]byte, error) {
	enc := getEncoder(nil)
	defer putEncoder(enc)
	enc.collectNames(v)
	enc.buildDict()

	// Iterate width classes to a fixpoint: sizes depend on widths and
	// vice versa. Classes only grow, so this terminates in <= 3 rounds.
	ct, cv := byte(0), byte(0)
	cf := classFor(len(enc.names) - 1)
	if len(enc.names) == 0 {
		cf = 0
	}
	m := measurerPool.Get().(*measurer)
	for {
		clear(m.seen)
		treeSize, valSize := m.measure(v, widthOf(ct), widthOf(cv), widthOf(cf))
		nct, ncv := classFor(treeSize), classFor(valSize)
		if nct == ct && ncv == cv {
			break
		}
		ct, cv = nct, ncv
	}
	measurerPool.Put(m)
	enc.wt, enc.wv, enc.wf = widthOf(ct), widthOf(cv), widthOf(cf)

	rootOff, err := enc.writeNode(v)
	if err != nil {
		return nil, err
	}

	dict := enc.serializeDict()
	dictOff := headerSize
	treeOff := dictOff + len(dict)
	valOff := treeOff + len(enc.tree)
	total := valOff + len(enc.vals)

	out := make([]byte, 0, total)
	out = append(out, Magic...)
	flags := byte(ct) | byte(cv)<<2 | cf<<4
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(dictOff))
	out = binary.LittleEndian.AppendUint32(out, uint32(treeOff))
	out = binary.LittleEndian.AppendUint32(out, uint32(valOff))
	out = binary.LittleEndian.AppendUint32(out, uint32(rootOff))
	out = binary.LittleEndian.AppendUint32(out, uint32(total))
	out = append(out, dict...)
	out = append(out, enc.tree...)
	out = append(out, enc.vals...)
	mEncodeDocs.Inc()
	mEncodeBytes.Add(int64(len(out)))
	return out, nil
}

// MustEncode encodes or panics; for fixtures.
func MustEncode(v jsondom.Value) []byte {
	b, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return b
}

func (e *encoder) collectNames(v jsondom.Value) {
	switch t := v.(type) {
	case *jsondom.Object:
		for _, f := range t.Fields() {
			e.internName(f.Name)
			e.collectNames(f.Value)
		}
	case *jsondom.Array:
		for _, el := range t.Elems {
			e.collectNames(el)
		}
	}
}

func (e *encoder) buildDict() {
	sort.Slice(e.names, func(i, j int) bool {
		if e.names[i].hash != e.names[j].hash {
			return e.names[i].hash < e.names[j].hash
		}
		return e.names[i].name < e.names[j].name
	})
	for i, d := range e.names {
		e.nameIDs[d.name] = FieldID(i)
	}
}

func (e *encoder) serializeDict() []byte {
	var heap []byte
	entries := make([]byte, 0, 8*len(e.names))
	for _, d := range e.names {
		entries = binary.LittleEndian.AppendUint32(entries, d.hash)
		entries = binary.LittleEndian.AppendUint32(entries, uint32(len(heap)))
		heap = binary.LittleEndian.AppendUint16(heap, uint16(len(d.name)))
		heap = append(heap, d.name...)
	}
	out := make([]byte, 0, 2+len(entries)+len(heap))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(e.names)))
	out = append(out, entries...)
	out = append(out, heap...)
	return out
}

// measurer computes tree and value segment sizes under given widths
// without writing bytes, replicating the encoder's value dedup.
type measurer struct {
	seen map[string]bool
}

func (m *measurer) measure(v jsondom.Value, wt, wv, wf int) (treeSize, valSize int) {
	switch t := v.(type) {
	case *jsondom.Object:
		n := t.Len()
		treeSize = 1 + wt + n*(wf+wt)
		for _, f := range t.Fields() {
			ts, vs := m.measure(f.Value, wt, wv, wf)
			treeSize += ts
			valSize += vs
		}
	case *jsondom.Array:
		n := t.Len()
		treeSize = 1 + wt + n*wt
		for _, el := range t.Elems {
			ts, vs := m.measure(el, wt, wv, wf)
			treeSize += ts
			valSize += vs
		}
	default:
		payload, lenWidth, inline := scalarPayloadSize(v)
		if inline {
			return 1, 0
		}
		key := scalarDedupKey(v)
		if m.seen[key] {
			return 1 + wv, 0
		}
		m.seen[key] = true
		return 1 + wv, payload + lenWidth
	}
	return treeSize, valSize
}

// scalarDedupKey renders a scalar's identity for value-slot sharing.
func scalarDedupKey(v jsondom.Value) string {
	switch t := v.(type) {
	case jsondom.Number:
		return "n" + string(t)
	case jsondom.Double:
		return "d" + strconv.FormatFloat(float64(t), 'b', -1, 64)
	case jsondom.String:
		return "s" + string(t)
	case jsondom.Timestamp:
		return "t" + strconv.FormatInt(int64(t), 10)
	case jsondom.Binary:
		return "b" + string(t)
	}
	return ""
}

// scalarPayloadSize returns the value-segment byte count for a scalar,
// the width of its length prefix (0 for fixed-size types) and whether
// the scalar is fully inline in the node header (null/bool).
func scalarPayloadSize(v jsondom.Value) (payload, lenWidth int, inline bool) {
	switch t := v.(type) {
	case jsondom.Null, jsondom.Bool:
		return 0, 0, true
	case jsondom.Number:
		b, err := decnum.Encode(string(t))
		if err != nil {
			// out-of-range numbers fall back to double encoding
			return 8, 0, false
		}
		return len(b), lenPrefixWidth(len(b)), false
	case jsondom.Double, jsondom.Timestamp:
		return 8, 0, false
	case jsondom.String:
		return len(t), lenPrefixWidth(len(t)), false
	case jsondom.Binary:
		return len(t), lenPrefixWidth(len(t)), false
	}
	return 0, 0, true
}

func lenPrefixWidth(n int) int {
	switch {
	case n <= math.MaxUint8:
		return 1
	case n <= math.MaxUint16:
		return 2
	default:
		return 4
	}
}

func lenPrefixClass(n int) byte {
	switch {
	case n <= math.MaxUint8:
		return 0
	case n <= math.MaxUint16:
		return 1
	default:
		return 2
	}
}

func (e *encoder) putUint(buf []byte, at, w int, v uint64) {
	switch w {
	case 1:
		buf[at] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(buf[at:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(buf[at:], uint32(v))
	}
}

func (e *encoder) appendUint(dst []byte, w int, v uint64) []byte {
	switch w {
	case 1:
		return append(dst, byte(v))
	case 2:
		return binary.LittleEndian.AppendUint16(dst, uint16(v))
	default:
		return binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
}

// writeNode serializes the subtree rooted at v into the tree and value
// buffers, returning the node's address.
func (e *encoder) writeNode(v jsondom.Value) (NodeAddr, error) {
	addr := NodeAddr(len(e.tree))
	switch t := v.(type) {
	case *jsondom.Object:
		n := t.Len()
		// children sorted by field id for binary search (§4.2.2). The
		// sort buffer comes from the encoder's stack-disciplined arena:
		// child recursion appends after base and truncates back, and if
		// an append regrows the arena this frame's header keeps reading
		// the fully written old backing array.
		base := len(e.entryScratch)
		for _, f := range t.Fields() {
			e.entryScratch = append(e.entryScratch, objEntry{id: e.nameIDs[f.Name], v: f.Value})
		}
		entries := e.entryScratch[base : base+n]
		sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })

		e.tree = append(e.tree, byte(nkObject<<6))
		e.tree = e.appendUint(e.tree, e.wt, uint64(n))
		idsAt := len(e.tree)
		e.tree = append(e.tree, make([]byte, n*e.wf)...)
		offsAt := len(e.tree)
		e.tree = append(e.tree, make([]byte, n*e.wt)...)
		for i, en := range entries {
			e.putUint(e.tree, idsAt+i*e.wf, e.wf, uint64(en.id))
			child, err := e.writeNode(en.v)
			if err != nil {
				return 0, err
			}
			e.putUint(e.tree, offsAt+i*e.wt, e.wt, uint64(child))
		}
		e.entryScratch = e.entryScratch[:base]
		return addr, nil
	case *jsondom.Array:
		n := t.Len()
		e.tree = append(e.tree, byte(nkArray<<6))
		e.tree = e.appendUint(e.tree, e.wt, uint64(n))
		offsAt := len(e.tree)
		e.tree = append(e.tree, make([]byte, n*e.wt)...)
		for i, el := range t.Elems {
			child, err := e.writeNode(el)
			if err != nil {
				return 0, err
			}
			e.putUint(e.tree, offsAt+i*e.wt, e.wt, uint64(child))
		}
		return addr, nil
	default:
		return e.writeScalar(v)
	}
}

func (e *encoder) writeScalar(v jsondom.Value) (NodeAddr, error) {
	addr := NodeAddr(len(e.tree))
	hdr := func(st byte, lenClass byte) byte {
		return byte(nkScalar<<6) | st<<3 | lenClass<<1
	}
	dedupKey := scalarDedupKey(v)
	writeVarlen := func(st byte, payload []byte) {
		lc := lenPrefixClass(len(payload))
		e.tree = append(e.tree, hdr(st, lc))
		if off, ok := e.valDedup[dedupKey]; ok {
			e.tree = e.appendUint(e.tree, e.wv, uint64(off))
			return
		}
		off := len(e.vals)
		e.valDedup[dedupKey] = off
		e.tree = e.appendUint(e.tree, e.wv, uint64(off))
		e.vals = e.appendUint(e.vals, widthOf(lc), uint64(len(payload)))
		e.vals = append(e.vals, payload...)
	}
	writeFixed := func(st byte, payload []byte) {
		e.tree = append(e.tree, hdr(st, 0))
		if off, ok := e.valDedup[dedupKey]; ok {
			e.tree = e.appendUint(e.tree, e.wv, uint64(off))
			return
		}
		off := len(e.vals)
		e.valDedup[dedupKey] = off
		e.tree = e.appendUint(e.tree, e.wv, uint64(off))
		e.vals = append(e.vals, payload...)
	}
	switch t := v.(type) {
	case jsondom.Null:
		e.tree = append(e.tree, hdr(stNull, 0))
	case jsondom.Bool:
		if t {
			e.tree = append(e.tree, hdr(stTrue, 0))
		} else {
			e.tree = append(e.tree, hdr(stFalse, 0))
		}
	case jsondom.Number:
		b, err := decnum.Encode(string(t))
		if err != nil {
			// out-of-range exponent: degrade to IEEE double (§4.2.3 lists
			// double as an alternate JSON number encoding) — unless even
			// the double representation overflows
			f := t.Float64()
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return 0, fmt.Errorf("oson: number %s exceeds every supported numeric range", t)
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			writeFixed(stDouble, buf[:])
			return addr, nil
		}
		writeVarlen(stNumber, b)
	case jsondom.Double:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(t)))
		writeFixed(stDouble, buf[:])
	case jsondom.Timestamp:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(t)))
		writeFixed(stTimestamp, buf[:])
	case jsondom.String:
		writeVarlen(stString, []byte(t))
	case jsondom.Binary:
		writeVarlen(stBinary, t)
	default:
		return 0, fmt.Errorf("oson: unsupported kind %v", v.Kind())
	}
	return addr, nil
}

// ---------------------------------------------------------------------------
// Document (decoder / byte-level DOM)

// Doc is a parsed OSON buffer exposing the DOM read interface of §5.1
// directly over the serialized bytes: node addresses are tree-segment
// offsets; no materialization happens unless requested.
type Doc struct {
	buf  []byte
	dict []byte // entries array (8 bytes each)
	heap []byte // name heap
	tree []byte
	vals []byte

	count      int // dictionary entries
	wt, wv, wf int
	root       NodeAddr
	// shared is the external dictionary for set-encoded documents
	// (nil for self-contained documents).
	shared *SharedDict
}

// Parse validates the OSON framing and returns a Doc for navigation.
// Parsing is O(header+dict bounds): the tree is validated lazily during
// navigation, which is what makes OSON loading cheap (§5.2.2).
func Parse(buf []byte) (*Doc, error) {
	if len(buf) < headerSize || string(buf[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if buf[4]&flagSharedDict != 0 {
		return nil, fmt.Errorf("%w: set-encoded document requires ParseShared", ErrCorrupt)
	}
	return parseCommon(buf)
}

// ParseInto is Parse reusing caller-owned decoder scratch: d is fully
// reinitialized against buf, so a loop decoding many transient
// documents (bulk validation, scans over out-of-line OSON columns) can
// recycle one Doc instead of allocating one per document. The Doc must
// not outlive the caller's exclusive use of it.
func ParseInto(d *Doc, buf []byte) error {
	if len(buf) < headerSize || string(buf[:4]) != Magic {
		return fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if buf[4]&flagSharedDict != 0 {
		return fmt.Errorf("%w: set-encoded document requires ParseShared", ErrCorrupt)
	}
	*d = Doc{}
	return parseCommonInto(d, buf)
}

// parseCommon validates framing shared by Parse and ParseShared.
func parseCommon(buf []byte) (*Doc, error) {
	d := &Doc{}
	if err := parseCommonInto(d, buf); err != nil {
		return nil, err
	}
	return d, nil
}

// parseCommonInto fills d from buf, validating the framing.
func parseCommonInto(d *Doc, buf []byte) error {
	flags := buf[4]
	dictOff := int(binary.LittleEndian.Uint32(buf[5:]))
	treeOff := int(binary.LittleEndian.Uint32(buf[9:]))
	valOff := int(binary.LittleEndian.Uint32(buf[13:]))
	rootOff := binary.LittleEndian.Uint32(buf[17:])
	total := int(binary.LittleEndian.Uint32(buf[21:]))
	if total != len(buf) || dictOff != headerSize ||
		treeOff < dictOff || valOff < treeOff || valOff > total {
		return fmt.Errorf("%w: bad segment offsets", ErrCorrupt)
	}
	d.buf = buf
	d.tree = buf[treeOff:valOff]
	d.vals = buf[valOff:]
	d.wt = widthOf(flags & 3)
	d.wv = widthOf(flags >> 2 & 3)
	d.wf = widthOf(flags >> 4 & 3)
	d.root = NodeAddr(rootOff)
	if flags&flagSharedDict != 0 {
		// set-encoded document: no embedded dictionary segment; the
		// caller binds the shared dictionary
		if int(rootOff) >= len(d.tree) {
			return fmt.Errorf("%w: root offset out of tree", ErrCorrupt)
		}
		mDecodeDocs.Inc()
		mDecodeBytes.Add(int64(len(buf)))
		return nil
	}
	dictSeg := buf[dictOff:treeOff]
	if len(dictSeg) < 2 {
		return fmt.Errorf("%w: dictionary segment too short", ErrCorrupt)
	}
	d.count = int(binary.LittleEndian.Uint16(dictSeg))
	entriesEnd := 2 + 8*d.count
	if entriesEnd > len(dictSeg) {
		return fmt.Errorf("%w: dictionary entries overflow", ErrCorrupt)
	}
	d.dict = dictSeg[2:entriesEnd]
	d.heap = dictSeg[entriesEnd:]
	if int(rootOff) >= len(d.tree) {
		return fmt.Errorf("%w: root offset out of tree", ErrCorrupt)
	}
	mDecodeDocs.Inc()
	mDecodeBytes.Add(int64(len(buf)))
	return nil
}

// MustParse parses or panics; for fixtures.
func MustParse(buf []byte) *Doc {
	d, err := Parse(buf)
	if err != nil {
		panic(err)
	}
	return d
}

// Bytes returns the underlying buffer.
func (d *Doc) Bytes() []byte { return d.buf }

// Root returns the root node address.
func (d *Doc) Root() NodeAddr { return d.root }

// SegmentSizes reports the byte sizes of the three OSON segments
// (dictionary, tree navigation, leaf values), used by Table 11.
func (d *Doc) SegmentSizes() (dict, tree, vals int) {
	return 2 + len(d.dict) + len(d.heap), len(d.tree), len(d.vals)
}

// DictLen returns the number of dictionary entries (distinct field
// names in the document).
func (d *Doc) DictLen() int { return d.count }

// FieldName returns the name for a field id.
func (d *Doc) FieldName(id FieldID) (string, error) {
	if d.shared != nil {
		return d.shared.Name(id)
	}
	if int(id) >= d.count {
		return "", fmt.Errorf("%w: field id %d out of range", ErrCorrupt, id)
	}
	nameOff := int(binary.LittleEndian.Uint32(d.dict[8*int(id)+4:]))
	if nameOff+2 > len(d.heap) {
		return "", fmt.Errorf("%w: name offset out of heap", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(d.heap[nameOff:]))
	if nameOff+2+n > len(d.heap) {
		return "", fmt.Errorf("%w: name overflows heap", ErrCorrupt)
	}
	// zero-copy: the name aliases the immutable dictionary heap
	return zstr(d.heap[nameOff+2 : nameOff+2+n]), nil
}

// entryHash returns the hash stored for dictionary entry i.
func (d *Doc) entryHash(i int) uint32 {
	return binary.LittleEndian.Uint32(d.dict[8*i:])
}

// LookupID resolves a field name to its id: binary search on the
// precomputed hash, then name comparison to resolve collisions
// (§4.2.1). The hash may be precomputed once per query plan.
func (d *Doc) LookupID(hash uint32, name string) (FieldID, bool) {
	if d.shared != nil {
		return d.shared.Lookup(name)
	}
	lo := sort.Search(d.count, func(i int) bool { return d.entryHash(i) >= hash })
	for i := lo; i < d.count && d.entryHash(i) == hash; i++ {
		n, err := d.FieldName(FieldID(i))
		if err == nil && n == name {
			return FieldID(i), true
		}
	}
	return 0, false
}

// LookupName is LookupID with the hash computed on the spot.
func (d *Doc) LookupName(name string) (FieldID, bool) {
	return d.LookupID(Hash(name), name)
}

func (d *Doc) nodeHeader(a NodeAddr) (byte, error) {
	if int(a) >= len(d.tree) {
		return 0, fmt.Errorf("%w: node address %d out of tree", ErrCorrupt, a)
	}
	return d.tree[a], nil
}

// NodeKind implements JsonDomGetNodeType (§5.1).
func (d *Doc) NodeKind(a NodeAddr) (jsondom.Kind, error) {
	h, err := d.nodeHeader(a)
	if err != nil {
		return 0, err
	}
	switch h >> 6 {
	case nkObject:
		return jsondom.KindObject, nil
	case nkArray:
		return jsondom.KindArray, nil
	case nkScalar:
		switch h >> 3 & 7 {
		case stNull:
			return jsondom.KindNull, nil
		case stFalse, stTrue:
			return jsondom.KindBool, nil
		case stNumber:
			return jsondom.KindNumber, nil
		case stDouble:
			return jsondom.KindDouble, nil
		case stString:
			return jsondom.KindString, nil
		case stTimestamp:
			return jsondom.KindTimestamp, nil
		case stBinary:
			return jsondom.KindBinary, nil
		}
	}
	return 0, fmt.Errorf("%w: bad node header 0x%02x", ErrCorrupt, h)
}

func (d *Doc) readUint(seg []byte, at, w int) (uint64, error) {
	if at < 0 || at+w > len(seg) {
		return 0, fmt.Errorf("%w: read out of segment", ErrCorrupt)
	}
	switch w {
	case 1:
		return uint64(seg[at]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(seg[at:])), nil
	default:
		return uint64(binary.LittleEndian.Uint32(seg[at:])), nil
	}
}

// containerCount returns the child count of a container node.
func (d *Doc) containerCount(a NodeAddr) (int, error) {
	n, err := d.readUint(d.tree, int(a)+1, d.wt)
	return int(n), err
}

// ObjectLen returns the number of fields of an object node.
func (d *Doc) ObjectLen(a NodeAddr) (int, error) {
	h, err := d.nodeHeader(a)
	if err != nil {
		return 0, err
	}
	if h>>6 != nkObject {
		return 0, fmt.Errorf("%w: not an object node", ErrCorrupt)
	}
	return d.containerCount(a)
}

// ArrayLen returns the number of elements of an array node.
func (d *Doc) ArrayLen(a NodeAddr) (int, error) {
	h, err := d.nodeHeader(a)
	if err != nil {
		return 0, err
	}
	if h>>6 != nkArray {
		return 0, fmt.Errorf("%w: not an array node", ErrCorrupt)
	}
	return d.containerCount(a)
}

// objectEntry returns the i-th (field id, child address) pair.
func (d *Doc) objectEntry(a NodeAddr, n, i int) (FieldID, NodeAddr, error) {
	idsAt := int(a) + 1 + d.wt
	id, err := d.readUint(d.tree, idsAt+i*d.wf, d.wf)
	if err != nil {
		return 0, 0, err
	}
	offsAt := idsAt + n*d.wf
	off, err := d.readUint(d.tree, offsAt+i*d.wt, d.wt)
	if err != nil {
		return 0, 0, err
	}
	return FieldID(id), NodeAddr(off), nil
}

// ObjectEntry returns the i-th field of an object node in field-id
// order.
func (d *Doc) ObjectEntry(a NodeAddr, i int) (FieldID, NodeAddr, error) {
	n, err := d.ObjectLen(a)
	if err != nil {
		return 0, 0, err
	}
	if i < 0 || i >= n {
		return 0, 0, fmt.Errorf("%w: object entry %d out of range", ErrCorrupt, i)
	}
	return d.objectEntry(a, n, i)
}

// GetFieldValue implements JsonDomGetFieldValue (§5.1): binary search
// over the sorted field-id child array.
func (d *Doc) GetFieldValue(a NodeAddr, id FieldID) (NodeAddr, bool, error) {
	h, err := d.nodeHeader(a)
	if err != nil {
		return 0, false, err
	}
	if h>>6 != nkObject {
		return 0, false, nil
	}
	n, err := d.containerCount(a)
	if err != nil {
		return 0, false, err
	}
	idsAt := int(a) + 1 + d.wt
	if idsAt+n*d.wf+n*d.wt > len(d.tree) {
		return 0, false, fmt.Errorf("%w: object children overflow tree", ErrCorrupt)
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		v, _ := d.readUint(d.tree, idsAt+mid*d.wf, d.wf)
		if FieldID(v) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n {
		v, _ := d.readUint(d.tree, idsAt+lo*d.wf, d.wf)
		if FieldID(v) == id {
			offsAt := idsAt + n*d.wf
			off, err := d.readUint(d.tree, offsAt+lo*d.wt, d.wt)
			if err != nil {
				return 0, false, err
			}
			return NodeAddr(off), true, nil
		}
	}
	return 0, false, nil
}

// GetFieldByName resolves the name through the dictionary, then
// navigates.
func (d *Doc) GetFieldByName(a NodeAddr, name string) (NodeAddr, bool, error) {
	id, ok := d.LookupName(name)
	if !ok {
		return 0, false, nil
	}
	return d.GetFieldValue(a, id)
}

// GetArrayElement implements JsonDomGetArrayElement (§5.1): direct
// positional access.
func (d *Doc) GetArrayElement(a NodeAddr, i int) (NodeAddr, bool, error) {
	h, err := d.nodeHeader(a)
	if err != nil {
		return 0, false, err
	}
	if h>>6 != nkArray {
		return 0, false, nil
	}
	n, err := d.containerCount(a)
	if err != nil {
		return 0, false, err
	}
	if i < 0 || i >= n {
		return 0, false, nil
	}
	offsAt := int(a) + 1 + d.wt
	off, err := d.readUint(d.tree, offsAt+i*d.wt, d.wt)
	if err != nil {
		return 0, false, err
	}
	return NodeAddr(off), true, nil
}

// scalarSlot describes where a scalar's payload lives.
type scalarSlot struct {
	subtype  byte
	valAt    int // payload offset in the value segment (after length prefix)
	length   int // payload length
	lenAt    int // offset of the length prefix, -1 if fixed-size
	lenWidth int
}

func (d *Doc) scalarSlot(a NodeAddr) (scalarSlot, error) {
	h, err := d.nodeHeader(a)
	if err != nil {
		return scalarSlot{}, err
	}
	if h>>6 != nkScalar {
		return scalarSlot{}, ErrNotScalar
	}
	st := h >> 3 & 7
	switch st {
	case stNull, stFalse, stTrue:
		return scalarSlot{subtype: st, lenAt: -1}, nil
	}
	off64, err := d.readUint(d.tree, int(a)+1, d.wv)
	if err != nil {
		return scalarSlot{}, err
	}
	off := int(off64)
	switch st {
	case stDouble, stTimestamp:
		if off+8 > len(d.vals) {
			return scalarSlot{}, fmt.Errorf("%w: scalar payload out of segment", ErrCorrupt)
		}
		return scalarSlot{subtype: st, valAt: off, length: 8, lenAt: -1}, nil
	default: // number, string, binary: length-prefixed
		lw := widthOf(h >> 1 & 3)
		n, err := d.readUint(d.vals, off, lw)
		if err != nil {
			return scalarSlot{}, err
		}
		if off+lw+int(n) > len(d.vals) {
			return scalarSlot{}, fmt.Errorf("%w: scalar payload out of segment", ErrCorrupt)
		}
		return scalarSlot{subtype: st, valAt: off + lw, length: int(n), lenAt: off, lenWidth: lw}, nil
	}
}

// Scalar implements JsonDomGetScalarInfo (§5.1): it decodes the leaf
// value a scalar node references.
func (d *Doc) Scalar(a NodeAddr) (jsondom.Value, error) {
	s, err := d.scalarSlot(a)
	if err != nil {
		return nil, err
	}
	payload := d.vals[s.valAt : s.valAt+s.length]
	switch s.subtype {
	case stNull:
		return jsondom.Null{}, nil
	case stFalse:
		return jsondom.Bool(false), nil
	case stTrue:
		return jsondom.Bool(true), nil
	case stNumber:
		// Small non-negative integers (quantities, codes, line numbers)
		// box to shared interned values instead of fresh strings.
		if v, ok := decnum.Int64(payload); ok {
			if bv, ok := jsondom.BoxedInt(v); ok {
				return bv, nil
			}
		}
		str, err := decnum.Decode(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return jsondom.Number(str), nil
	case stDouble:
		return jsondom.Double(math.Float64frombits(binary.LittleEndian.Uint64(payload))), nil
	case stTimestamp:
		return jsondom.Timestamp(int64(binary.LittleEndian.Uint64(payload))), nil
	case stString:
		// zero-copy: the string aliases the immutable value segment
		return jsondom.String(zstr(payload)), nil
	case stBinary:
		return jsondom.Binary(append([]byte(nil), payload...)), nil
	}
	return nil, fmt.Errorf("%w: bad scalar subtype", ErrCorrupt)
}

// ScalarRaw decodes the leaf value a scalar node references into an
// unboxed jsondom.Scalar — the allocation-free counterpart of Scalar
// used by arena-pooled path evaluation and batch emission. String,
// number, and binary payloads alias the document's immutable value
// segment (same contract as zstr), so they remain valid for the life of
// the backing buffer even if the Doc struct itself is reused via
// ParseInto. Number payloads are validated here so later decoding of
// the returned bytes cannot fail.
func (d *Doc) ScalarRaw(a NodeAddr) (jsondom.Scalar, error) {
	s, err := d.scalarSlot(a)
	if err != nil {
		return jsondom.Scalar{}, err
	}
	payload := d.vals[s.valAt : s.valAt+s.length]
	switch s.subtype {
	case stNull:
		return jsondom.Scalar{K: jsondom.KindNull}, nil
	case stFalse:
		return jsondom.Scalar{K: jsondom.KindBool}, nil
	case stTrue:
		return jsondom.Scalar{K: jsondom.KindBool, B: true}, nil
	case stNumber:
		if !decnum.Valid(payload) {
			return jsondom.Scalar{}, fmt.Errorf("%w: %w", ErrCorrupt, decnum.ErrCorrupt)
		}
		return jsondom.Scalar{K: jsondom.KindNumber, Bytes: payload}, nil
	case stDouble:
		return jsondom.Scalar{K: jsondom.KindDouble, F: math.Float64frombits(binary.LittleEndian.Uint64(payload))}, nil
	case stTimestamp:
		return jsondom.Scalar{K: jsondom.KindTimestamp, T: int64(binary.LittleEndian.Uint64(payload))}, nil
	case stString:
		return jsondom.Scalar{K: jsondom.KindString, Str: zstr(payload)}, nil
	case stBinary:
		return jsondom.Scalar{K: jsondom.KindBinary, Bytes: payload}, nil
	}
	return jsondom.Scalar{}, fmt.Errorf("%w: bad scalar subtype", ErrCorrupt)
}

// NumberBytes returns the raw decnum payload of a number scalar,
// allowing order-preserving comparisons without decoding.
func (d *Doc) NumberBytes(a NodeAddr) ([]byte, bool, error) {
	s, err := d.scalarSlot(a)
	if err != nil {
		return nil, false, err
	}
	if s.subtype != stNumber {
		return nil, false, nil
	}
	return d.vals[s.valAt : s.valAt+s.length], true, nil
}

// StringBytes returns the raw bytes of a string scalar without copying.
func (d *Doc) StringBytes(a NodeAddr) ([]byte, bool, error) {
	s, err := d.scalarSlot(a)
	if err != nil {
		return nil, false, err
	}
	if s.subtype != stString {
		return nil, false, nil
	}
	return d.vals[s.valAt : s.valAt+s.length], true, nil
}

// Decode materializes the subtree rooted at a into a jsondom tree.
func (d *Doc) Decode(a NodeAddr) (jsondom.Value, error) {
	return d.decode(a, 0)
}

// DecodeRoot materializes the whole document.
func (d *Doc) DecodeRoot() (jsondom.Value, error) { return d.Decode(d.root) }

const maxDecodeDepth = 2048

func (d *Doc) decode(a NodeAddr, depth int) (jsondom.Value, error) {
	if depth > maxDecodeDepth {
		return nil, fmt.Errorf("%w: decode recursion limit", ErrCorrupt)
	}
	k, err := d.NodeKind(a)
	if err != nil {
		return nil, err
	}
	switch k {
	case jsondom.KindObject:
		n, err := d.ObjectLen(a)
		if err != nil {
			return nil, err
		}
		o := jsondom.NewObject()
		for i := 0; i < n; i++ {
			id, child, err := d.objectEntry(a, n, i)
			if err != nil {
				return nil, err
			}
			name, err := d.FieldName(id)
			if err != nil {
				return nil, err
			}
			v, err := d.decode(child, depth+1)
			if err != nil {
				return nil, err
			}
			o.Set(name, v)
		}
		return o, nil
	case jsondom.KindArray:
		n, err := d.ArrayLen(a)
		if err != nil {
			return nil, err
		}
		arr := jsondom.NewArray()
		for i := 0; i < n; i++ {
			child, ok, err := d.GetArrayElement(a, i)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("%w: array element vanished", ErrCorrupt)
			}
			v, err := d.decode(child, depth+1)
			if err != nil {
				return nil, err
			}
			arr.Append(v)
		}
		return arr, nil
	default:
		return d.Scalar(a)
	}
}

// UpdateScalar replaces the leaf value at a scalar node in place. The
// new payload must be of the same scalar family and must not exceed the
// existing slot size; otherwise ErrUpdateTooLarge (or a type error) is
// returned and the caller should re-encode the document (§4.2.3).
//
// Note: the encoder shares value-segment slots between identical leaf
// values, so an in-place update rewrites every node referencing the
// slot. Callers that need strict single-node updates should re-encode
// the document.
func (d *Doc) UpdateScalar(a NodeAddr, v jsondom.Value) error {
	s, err := d.scalarSlot(a)
	if err != nil {
		return err
	}
	var payload []byte
	var st byte
	switch t := v.(type) {
	case jsondom.Number:
		b, err := decnum.Encode(string(t))
		if err != nil {
			return err
		}
		payload, st = b, stNumber
	case jsondom.Double:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(t)))
		payload, st = buf[:], stDouble
	case jsondom.Timestamp:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(t)))
		payload, st = buf[:], stTimestamp
	case jsondom.String:
		payload, st = []byte(t), stString
	case jsondom.Binary:
		payload, st = t, stBinary
	default:
		return fmt.Errorf("oson: unsupported in-place update for kind %v", v.Kind())
	}
	if st != s.subtype {
		return fmt.Errorf("oson: in-place update cannot change scalar type (%d -> %d)", s.subtype, st)
	}
	if len(payload) > s.length {
		return ErrUpdateTooLarge
	}
	copy(d.vals[s.valAt:], payload)
	if s.lenAt >= 0 && len(payload) != s.length {
		// shrink: rewrite the length prefix; the slack bytes stay as
		// garbage inside the slot (slot size is unchanged)
		switch s.lenWidth {
		case 1:
			d.vals[s.lenAt] = byte(len(payload))
		case 2:
			binary.LittleEndian.PutUint16(d.vals[s.lenAt:], uint16(len(payload)))
		default:
			binary.LittleEndian.PutUint32(d.vals[s.lenAt:], uint32(len(payload)))
		}
	} else if s.lenAt < 0 && len(payload) != s.length {
		return ErrUpdateTooLarge // fixed-size slot requires exact size
	}
	return nil
}

// FromJSONText encodes JSON text directly to OSON bytes, the implicit
// conversion the OSON() constructor performs during in-memory
// population (§5.2.2).
func FromJSONText(text []byte) ([]byte, error) {
	v, err := jsontext.Parse(text)
	if err != nil {
		return nil, err
	}
	return Encode(v)
}

// FieldRef is a compiled reference to a field name: the hash is
// computed once at SQL compile time; Resolve performs the per-document
// id lookup with the single-row look-back optimization of §4.2.1 (on
// structurally homogeneous collections the previous document's id is
// revalidated with one hash-entry probe instead of a full search).
type FieldRef struct {
	Name string
	H    uint32

	// last is the look-back: the most recently resolved id packed as
	// id<<1|1 (zero means no id yet). One atomic word keeps a FieldRef
	// shared between concurrent scans (parallel scan workers,
	// virtual-column closures) data-race free without a lock or an
	// allocation on the hot path. The word carries no document
	// identity: every use revalidates the id against the document at
	// hand, so a stale id can only miss, never answer wrongly.
	last atomic.Uint64
}

// NewFieldRef compiles a field reference.
func NewFieldRef(name string) *FieldRef {
	return &FieldRef{Name: name, H: Hash(name)}
}

// Resolve returns the field id of the referenced name in d.
func (r *FieldRef) Resolve(d *Doc) (FieldID, bool) {
	// look-back: check whether the previous document's id is valid here
	// — a hash compare plus a zero-copy name compare. Shared-dictionary
	// documents have globally stable ids, so the look-back always hits
	// once the name has been seen (§7).
	last := r.last.Load()
	if last&1 != 0 {
		id := FieldID(last >> 1)
		if d.shared != nil {
			if n, err := d.shared.Name(id); err == nil && n == r.Name {
				mLookbackHits.Inc()
				return id, true
			}
		} else if int(id) < d.count && d.entryHash(int(id)) == r.H {
			if n, err := d.FieldName(id); err == nil && n == r.Name {
				mLookbackHits.Inc()
				return id, true
			}
		}
	}
	mLookbackMisses.Inc()
	id, ok := d.LookupID(r.H, r.Name)
	if ok {
		// an absent field keeps the previous id: on sparse collections
		// the next document likely has the field at its old position
		r.last.Store(uint64(id)<<1 | 1)
	}
	return id, ok
}
