// Package jsontext implements JSON text processing for the FSDM stack:
// a streaming event parser (the substrate of the paper's streaming
// SQL/JSON path engine, §5.1), a DOM parser built on it, and a compact
// serializer.
//
// The streaming parser produces a flat sequence of events
// (ObjectStart/Key/.../ObjectEnd) without materializing a DOM, which is
// exactly what the paper's text path engine consumes. The DOM parser
// materializes jsondom values for operators that need full trees.
package jsontext

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/jsondom"
)

// EventKind discriminates streaming parser events.
type EventKind uint8

// Event kinds produced by Parser.Next.
const (
	EvObjectStart EventKind = iota
	EvObjectEnd
	EvArrayStart
	EvArrayEnd
	EvKey    // Str holds the field name
	EvString // Str holds the decoded string
	EvNumber // Str holds the raw number literal
	EvBool   // Bool holds the value
	EvNull
	EvEOF
)

// String returns the event kind name for diagnostics.
func (k EventKind) String() string {
	switch k {
	case EvObjectStart:
		return "ObjectStart"
	case EvObjectEnd:
		return "ObjectEnd"
	case EvArrayStart:
		return "ArrayStart"
	case EvArrayEnd:
		return "ArrayEnd"
	case EvKey:
		return "Key"
	case EvString:
		return "String"
	case EvNumber:
		return "Number"
	case EvBool:
		return "Bool"
	case EvNull:
		return "Null"
	case EvEOF:
		return "EOF"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one step of a streaming parse.
type Event struct {
	Kind EventKind
	Str  string
	Bool bool
}

// SyntaxError reports malformed JSON text with a byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsontext: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// ErrDepth is returned when nesting exceeds the parser limit.
var ErrDepth = errors.New("jsontext: maximum nesting depth exceeded")

// MaxDepth bounds container nesting to keep recursion and state stacks
// small; matches common database engine limits.
const MaxDepth = 1024

type parserState uint8

const (
	stateValue    parserState = iota // expecting a value
	stateObjKey                      // expecting key or '}'
	stateObjColon                    // expecting ':'
	stateObjValue                    // expecting value after ':'
	stateObjComma                    // expecting ',' or '}'
	stateArrValue                    // expecting value or ']'
	stateArrComma                    // expecting ',' or ']'
	stateDone                        // top-level value consumed
)

// Parser is a streaming JSON pull parser over an in-memory buffer.
type Parser struct {
	buf   []byte
	pos   int
	stack []bool // true = object frame, false = array frame
	state parserState
	// NoStrings suppresses string materialization: Key/String events
	// carry empty Str values (escapes are still validated). Validation
	// passes (IS JSON) set this to avoid per-token allocations.
	NoStrings bool
	// alias marks buf as the bytes of an immutable string (ResetString):
	// strings and number literals are then substrings of it, not copies.
	alias bool

	spanStart, spanEnd int
	spanEsc            bool // the last NoStrings span holds a '\' escape
}

// NewParser returns a parser over buf. The parser does not copy buf.
func NewParser(buf []byte) *Parser {
	return &Parser{buf: buf, state: stateValue}
}

// Reset repoints the parser at buf, as NewParser would, keeping the
// container stack's capacity so one parser can serve a stream of
// documents without allocating.
func (p *Parser) Reset(buf []byte) {
	*p = Parser{buf: buf, stack: p.stack[:0]}
}

// ResetString is Reset over the bytes of s, read in place. Strings and
// number literals in the events are substrings of s rather than copies
// (escaped strings excepted), so they keep s reachable for as long as
// they are.
func (p *Parser) ResetString(s string) {
	p.Reset(unsafe.Slice(unsafe.StringData(s), len(s)))
	p.alias = true
}

// str returns b, a sub-slice of the buffer, as a string: a substring of
// the source for a ResetString parser, a copy otherwise.
func (p *Parser) str(b []byte) string {
	if p.alias && len(b) > 0 {
		return unsafe.String(&b[0], len(b))
	}
	return string(b)
}

// Offset returns the current byte offset, for error reporting and for
// skip-based consumers.
func (p *Parser) Offset() int { return p.pos }

func (p *Parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) skipWS() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// Next returns the next event. After the top-level value is fully
// consumed it returns an EvEOF event; trailing non-space input is an
// error.
func (p *Parser) Next() (Event, error) {
	p.skipWS()
	switch p.state {
	case stateDone:
		if p.pos < len(p.buf) {
			return Event{}, p.errf("trailing data after top-level value")
		}
		return Event{Kind: EvEOF}, nil
	case stateObjColon:
		if p.pos >= len(p.buf) || p.buf[p.pos] != ':' {
			return Event{}, p.errf("expected ':'")
		}
		p.pos++
		p.state = stateObjValue
		p.skipWS()
	case stateObjComma:
		if p.pos >= len(p.buf) {
			return Event{}, p.errf("unexpected end of input in object")
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
			p.state = stateObjKey
			p.skipWS()
			// a key must follow a comma
			if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
				return Event{}, p.errf("expected field name after ','")
			}
		case '}':
			p.pos++
			p.pop()
			return Event{Kind: EvObjectEnd}, nil
		default:
			return Event{}, p.errf("expected ',' or '}' in object")
		}
	case stateArrComma:
		if p.pos >= len(p.buf) {
			return Event{}, p.errf("unexpected end of input in array")
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
			p.state = stateArrValue
			p.skipWS()
			if p.pos < len(p.buf) && p.buf[p.pos] == ']' {
				return Event{}, p.errf("expected value after ','")
			}
		case ']':
			p.pos++
			p.pop()
			return Event{Kind: EvArrayEnd}, nil
		default:
			return Event{}, p.errf("expected ',' or ']' in array")
		}
	}

	switch p.state {
	case stateObjKey:
		if p.pos >= len(p.buf) {
			return Event{}, p.errf("unexpected end of input in object")
		}
		if p.buf[p.pos] == '}' {
			p.pos++
			p.pop()
			return Event{Kind: EvObjectEnd}, nil
		}
		if p.buf[p.pos] != '"' {
			return Event{}, p.errf("expected field name string")
		}
		s, err := p.lexString()
		if err != nil {
			return Event{}, err
		}
		p.state = stateObjColon
		return Event{Kind: EvKey, Str: s}, nil

	case stateValue, stateObjValue, stateArrValue:
		if p.pos >= len(p.buf) {
			return Event{}, p.errf("unexpected end of input, expected value")
		}
		if p.state == stateArrValue && p.buf[p.pos] == ']' {
			p.pos++
			p.pop()
			return Event{Kind: EvArrayEnd}, nil
		}
		return p.lexValue()
	}
	return Event{}, p.errf("internal: bad parser state %d", p.state)
}

// push enters a container frame. isObj selects the frame type.
func (p *Parser) push(isObj bool) error {
	if len(p.stack) >= MaxDepth {
		return ErrDepth
	}
	p.stack = append(p.stack, isObj)
	if isObj {
		p.state = stateObjKey
	} else {
		p.state = stateArrValue
	}
	return nil
}

// pop leaves the current frame and restores the parent continuation
// state.
func (p *Parser) pop() {
	p.stack = p.stack[:len(p.stack)-1]
	p.afterValue()
}

// afterValue sets the continuation state after a complete value.
func (p *Parser) afterValue() {
	if len(p.stack) == 0 {
		p.state = stateDone
		return
	}
	if p.stack[len(p.stack)-1] {
		p.state = stateObjComma
	} else {
		p.state = stateArrComma
	}
}

func (p *Parser) lexValue() (Event, error) {
	c := p.buf[p.pos]
	switch {
	case c == '{':
		p.pos++
		if err := p.push(true); err != nil {
			return Event{}, err
		}
		return Event{Kind: EvObjectStart}, nil
	case c == '[':
		p.pos++
		if err := p.push(false); err != nil {
			return Event{}, err
		}
		return Event{Kind: EvArrayStart}, nil
	case c == '"':
		s, err := p.lexString()
		if err != nil {
			return Event{}, err
		}
		p.afterValue()
		return Event{Kind: EvString, Str: s}, nil
	case c == 't':
		if err := p.expect("true"); err != nil {
			return Event{}, err
		}
		p.afterValue()
		return Event{Kind: EvBool, Bool: true}, nil
	case c == 'f':
		if err := p.expect("false"); err != nil {
			return Event{}, err
		}
		p.afterValue()
		return Event{Kind: EvBool, Bool: false}, nil
	case c == 'n':
		if err := p.expect("null"); err != nil {
			return Event{}, err
		}
		p.afterValue()
		return Event{Kind: EvNull}, nil
	case c == '-' || (c >= '0' && c <= '9'):
		s, err := p.lexNumber()
		if err != nil {
			return Event{}, err
		}
		p.afterValue()
		return Event{Kind: EvNumber, Str: s}, nil
	}
	return Event{}, p.errf("unexpected character %q", c)
}

func (p *Parser) expect(lit string) error {
	if p.pos+len(lit) > len(p.buf) || string(p.buf[p.pos:p.pos+len(lit)]) != lit {
		return p.errf("invalid literal, expected %q", lit)
	}
	p.pos += len(lit)
	return nil
}

// lexNumber validates JSON number grammar and returns the raw literal.
func (p *Parser) lexNumber() (string, error) {
	start := p.pos
	if p.buf[p.pos] == '-' {
		p.pos++
	}
	if p.pos >= len(p.buf) {
		return "", p.errf("truncated number")
	}
	switch {
	case p.buf[p.pos] == '0':
		p.pos++
	case p.buf[p.pos] >= '1' && p.buf[p.pos] <= '9':
		for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
			p.pos++
		}
	default:
		return "", p.errf("invalid number")
	}
	if p.pos < len(p.buf) && p.buf[p.pos] == '.' {
		p.pos++
		d := p.pos
		for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == d {
			return "", p.errf("digits required after decimal point")
		}
	}
	if p.pos < len(p.buf) && (p.buf[p.pos] == 'e' || p.buf[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.buf) && (p.buf[p.pos] == '+' || p.buf[p.pos] == '-') {
			p.pos++
		}
		d := p.pos
		for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == d {
			return "", p.errf("digits required in exponent")
		}
		// engine limit: exponents beyond 7 digits exceed every numeric
		// representation this engine supports (decnum, IEEE double);
		// rejecting here keeps Valid and Parse consistent
		if p.pos-d > 7 {
			return "", p.errf("number exponent out of supported range")
		}
	}
	if p.NoStrings {
		return "", nil
	}
	return p.str(p.buf[start:p.pos]), nil
}

// strPlain marks the bytes that stand for themselves inside a JSON
// string: everything but the quote, the backslash, and control
// characters.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// lexString decodes a JSON string starting at the opening quote.
func (p *Parser) lexString() (string, error) {
	if p.NoStrings {
		return "", p.validateString()
	}
	p.pos++ // opening quote
	start := p.pos
	// fast path: no escapes, no control chars
	for p.pos < len(p.buf) && strPlain[p.buf[p.pos]] {
		p.pos++
	}
	if p.pos < len(p.buf) && p.buf[p.pos] == '"' {
		p.pos++
		return p.str(p.buf[start : p.pos-1]), nil
	}
	// slow path with escape decoding
	var sb strings.Builder
	sb.Write(p.buf[start:p.pos])
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		switch {
		case strPlain[c]:
			sb.WriteByte(c)
			p.pos++
		case c == '"':
			p.pos++
			return sb.String(), nil
		case c < 0x20:
			return "", p.errf("unescaped control character in string")
		default: // '\\'
			p.pos++
			if p.pos >= len(p.buf) {
				return "", p.errf("truncated escape")
			}
			switch p.buf[p.pos] {
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			case '/':
				sb.WriteByte('/')
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case 'u':
				r, err := p.lexUnicodeEscape()
				if err != nil {
					return "", err
				}
				sb.WriteRune(r)
				continue // lexUnicodeEscape advanced pos past the escape
			default:
				return "", p.errf("invalid escape \\%c", p.buf[p.pos])
			}
			p.pos++
		}
	}
	return "", p.errf("unterminated string")
}

// SpanStart and SpanEnd bound the raw bytes (inside the quotes,
// escapes unprocessed) of the last string token scanned in NoStrings
// mode; fingerprinting hashes the span without materializing it.
func (p *Parser) SpanStart() int { return p.spanStart }

// SpanEnd is the exclusive end of the last NoStrings string span.
func (p *Parser) SpanEnd() int { return p.spanEnd }

// SpanEquals reports whether the last string scanned in NoStrings mode
// decodes to name. A span without escapes is compared in place; only
// an escaped one is decoded, so matching a field name against the
// keys of a document allocates nothing in the common case.
func (p *Parser) SpanEquals(name string) bool {
	span := p.buf[p.spanStart:p.spanEnd]
	if !p.spanEsc {
		return string(span) == name
	}
	q := Parser{buf: p.buf[p.spanStart-1 : p.spanEnd+1]}
	s, err := q.lexString()
	return err == nil && s == name
}

// validateString scans a string without materializing it, validating
// escape sequences and control characters.
func (p *Parser) validateString() error {
	buf, i := p.buf, p.pos+1 // past the opening quote
	p.spanStart, p.spanEsc = i, false
	for {
		for i < len(buf) && strPlain[buf[i]] {
			i++
		}
		if i >= len(buf) {
			p.pos = i
			return p.errf("unterminated string")
		}
		switch buf[i] {
		case '"':
			p.spanEnd, p.pos = i, i+1
			return nil
		case '\\':
			p.spanEsc = true
			i++
			if i >= len(buf) {
				p.pos = i
				return p.errf("truncated escape")
			}
			switch buf[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				p.pos = i
				if _, err := p.hex4(i + 1); err != nil {
					return err
				}
				i += 5
			default:
				p.pos = i
				return p.errf("invalid escape \\%c", buf[i])
			}
		default:
			p.pos = i
			return p.errf("unescaped control character in string")
		}
	}
}

// lexUnicodeEscape parses the 4 hex digits after \u (pos is at 'u'),
// handling UTF-16 surrogate pairs.
func (p *Parser) lexUnicodeEscape() (rune, error) {
	h1, err := p.hex4(p.pos + 1)
	if err != nil {
		return 0, err
	}
	p.pos += 5
	r := rune(h1)
	if utf16.IsSurrogate(r) {
		if p.pos+6 <= len(p.buf) && p.buf[p.pos] == '\\' && p.buf[p.pos+1] == 'u' {
			h2, err := p.hex4(p.pos + 2)
			if err != nil {
				return 0, err
			}
			if dec := utf16.DecodeRune(r, rune(h2)); dec != utf8.RuneError {
				p.pos += 6
				return dec, nil
			}
		}
		return utf8.RuneError, nil // lone surrogate: replacement char
	}
	return r, nil
}

func (p *Parser) hex4(at int) (uint32, error) {
	if at+4 > len(p.buf) {
		return 0, p.errf("truncated \\u escape")
	}
	var v uint32
	for i := 0; i < 4; i++ {
		c := p.buf[at+i]
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return 0, p.errf("invalid hex digit %q in \\u escape", c)
		}
		v = v<<4 | d
	}
	return v, nil
}

// SkipValue consumes and discards the value that starts with the given
// first event (which must already have been read). This gives the text
// parser the "skip navigation" ability the paper attributes to
// length-prefixed formats only partially (§4.1): text must still scan
// every byte. The scan runs in NoStrings mode — every token is still
// validated, nothing is materialized — and restores the caller's mode.
func (p *Parser) SkipValue(first Event) error {
	switch first.Kind {
	case EvObjectStart, EvArrayStart:
		// fall through to consume the container body
	default:
		return nil // scalars are already fully consumed
	}
	noStrings := p.NoStrings
	p.NoStrings = true
	err := p.skipBody()
	p.NoStrings = noStrings
	return err
}

// skipBody consumes the rest of a container whose start event has been
// read.
func (p *Parser) skipBody() error {
	for depth := 1; depth > 0; {
		ev, err := p.Next()
		if err != nil {
			return err
		}
		switch ev.Kind {
		case EvObjectStart, EvArrayStart:
			depth++
		case EvObjectEnd, EvArrayEnd:
			depth--
		case EvEOF:
			return p.errf("unexpected EOF while skipping")
		}
	}
	return nil
}

// ReadValue materializes the value whose first event (already read) is
// first, consuming the rest of it. Strings are decoded regardless of
// NoStrings, which is left off.
func (p *Parser) ReadValue(first Event) (jsondom.Value, error) {
	p.NoStrings = false
	return buildValue(p, first)
}

// Parse parses a complete JSON document into a jsondom tree.
func Parse(buf []byte) (jsondom.Value, error) {
	p := NewParser(buf)
	ev, err := p.Next()
	if err != nil {
		return nil, err
	}
	v, err := buildValue(p, ev)
	if err != nil {
		return nil, err
	}
	end, err := p.Next()
	if err != nil {
		return nil, err
	}
	if end.Kind != EvEOF {
		return nil, &SyntaxError{Offset: p.pos, Msg: "trailing data"}
	}
	return v, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (jsondom.Value, error) { return Parse([]byte(s)) }

// MustParse parses or panics; for tests and static fixtures.
func MustParse(s string) jsondom.Value {
	v, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return v
}

func buildValue(p *Parser, ev Event) (jsondom.Value, error) {
	switch ev.Kind {
	case EvNull:
		return jsondom.Null{}, nil
	case EvBool:
		return jsondom.Bool(ev.Bool), nil
	case EvString:
		return jsondom.String(ev.Str), nil
	case EvNumber:
		n, err := jsondom.N(ev.Str)
		if err != nil {
			return nil, err
		}
		return n, nil
	case EvObjectStart:
		o := jsondom.NewObject()
		for {
			ev, err := p.Next()
			if err != nil {
				return nil, err
			}
			if ev.Kind == EvObjectEnd {
				return o, nil
			}
			if ev.Kind != EvKey {
				return nil, &SyntaxError{Offset: p.pos, Msg: "expected key"}
			}
			key := ev.Str
			ev, err = p.Next()
			if err != nil {
				return nil, err
			}
			v, err := buildValue(p, ev)
			if err != nil {
				return nil, err
			}
			o.Set(key, v)
		}
	case EvArrayStart:
		a := jsondom.NewArray()
		for {
			ev, err := p.Next()
			if err != nil {
				return nil, err
			}
			if ev.Kind == EvArrayEnd {
				return a, nil
			}
			v, err := buildValue(p, ev)
			if err != nil {
				return nil, err
			}
			a.Append(v)
		}
	}
	return nil, &SyntaxError{Offset: p.pos, Msg: "unexpected event " + ev.Kind.String()}
}

// Serialize renders v as compact JSON text (no insignificant
// whitespace), the form the paper's experiments use to minimize text
// size (§6 criteria #1).
func Serialize(v jsondom.Value) []byte {
	var sb strings.Builder
	writeValue(&sb, v)
	return []byte(sb.String())
}

// SerializeString is Serialize returning a string.
func SerializeString(v jsondom.Value) string { return string(Serialize(v)) }

func writeValue(sb *strings.Builder, v jsondom.Value) {
	switch t := v.(type) {
	case jsondom.Null:
		sb.WriteString("null")
	case jsondom.Bool:
		if t {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case jsondom.Number:
		sb.WriteString(string(t))
	case jsondom.Double:
		// NaN and infinities have no JSON representation; render null
		// (the lossy convention several serializers adopt)
		if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
			sb.WriteString("null")
			return
		}
		sb.WriteString(strconv.FormatFloat(float64(t), 'g', -1, 64))
	case jsondom.String:
		writeString(sb, string(t))
	case jsondom.Timestamp:
		// timestamps serialize as ISO-8601 strings in text form
		writeString(sb, t.Time().Format("2006-01-02T15:04:05.000Z"))
	case jsondom.Binary:
		writeString(sb, hexEncode(t))
	case *jsondom.Object:
		sb.WriteByte('{')
		for i, f := range t.Fields() {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeString(sb, f.Name)
			sb.WriteByte(':')
			writeValue(sb, f.Value)
		}
		sb.WriteByte('}')
	case *jsondom.Array:
		sb.WriteByte('[')
		for i, e := range t.Elems {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeValue(sb, e)
		}
		sb.WriteByte(']')
	}
}

const hexDigits = "0123456789abcdef"

func hexEncode(b []byte) string {
	out := make([]byte, 2*len(b))
	for i, c := range b {
		out[2*i] = hexDigits[c>>4]
		out[2*i+1] = hexDigits[c&0xF]
	}
	return string(out)
}

func writeString(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			sb.WriteString(`\"`)
		case c == '\\':
			sb.WriteString(`\\`)
		case c == '\b':
			sb.WriteString(`\b`)
		case c == '\f':
			sb.WriteString(`\f`)
		case c == '\n':
			sb.WriteString(`\n`)
		case c == '\r':
			sb.WriteString(`\r`)
		case c == '\t':
			sb.WriteString(`\t`)
		case c < 0x20:
			sb.WriteString(`\u00`)
			sb.WriteByte(hexDigits[c>>4])
			sb.WriteByte(hexDigits[c&0xF])
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
}

// StructureFingerprint scans buf once and returns a 64-bit hash of its
// *structure*: container shape, field names and scalar kinds — scalar
// values are ignored. Two documents with equal fingerprints imply the
// same DataGuide contribution, which is what lets homogeneous inserts
// skip DataGuide processing entirely (§3.2.1's common-case fast path).
func StructureFingerprint(buf []byte) (uint64, error) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	p := NewParser(buf)
	p.NoStrings = true // hash raw key spans; no per-token allocation
	for {
		ev, err := p.Next()
		if err != nil {
			return 0, err
		}
		switch ev.Kind {
		case EvEOF:
			return h, nil
		case EvKey:
			mix('k')
			for i := p.SpanStart(); i < p.SpanEnd(); i++ {
				mix(buf[i])
			}
		default:
			mix(byte(ev.Kind))
		}
	}
}

// Valid reports whether buf is well-formed JSON; it is the engine
// behind the IS JSON check constraint and never allocates a DOM.
func Valid(buf []byte) bool {
	p := NewParser(buf)
	p.NoStrings = true
	for {
		ev, err := p.Next()
		if err != nil {
			return false
		}
		if ev.Kind == EvEOF {
			return true
		}
	}
}
