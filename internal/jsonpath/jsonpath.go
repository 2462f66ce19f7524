// Package jsonpath parses the SQL/JSON path language of [21] used by
// JSON_VALUE, JSON_QUERY, JSON_EXISTS and JSON_TABLE: '$' roots,
// object field steps, wildcards, array subscripts (index, ranges,
// last), descendant steps and filter predicates.
//
// The package is a pure parser/AST; evaluation lives in
// internal/pathengine with a DOM backend and a streaming backend.
package jsonpath

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/jsondom"
)

// Path is a parsed SQL/JSON path expression.
type Path struct {
	// Lax selects lax semantics (the SQL/JSON default): container
	// mismatches unwrap or wrap instead of erroring.
	Lax   bool
	Steps []Step
	// Text is the original source, kept for error messages and for view
	// DDL generation.
	Text string
}

// Step is one navigation step of a path.
type Step interface{ isStep() }

// FieldStep navigates to a named object member ($.name).
type FieldStep struct{ Name string }

// WildcardStep navigates to all object members ($.*).
type WildcardStep struct{}

// ArrayStep selects array elements by subscripts; Wildcard selects all
// ([*]).
type ArrayStep struct {
	Wildcard bool
	Subs     []Subscript
}

// Subscript is one array selector: a single index, or a range. Indexes
// may be relative to 'last'.
type Subscript struct {
	From    Index
	To      Index // valid only when IsRange
	IsRange bool
}

// Index is an array position, possibly relative to the last element
// (last - Back); for absolute positions Back is 0 and Last is false.
type Index struct {
	Pos  int
	Last bool
	Back int // subtracted from last when Last
}

// DescendantStep navigates to all descendants named Name ($..name).
type DescendantStep struct{ Name string }

// FilterStep keeps context items satisfying the predicate (?(...)).
// In lax mode an array context item is unwrapped and the predicate
// applied to each element. NoUnwrap applies it to the array as a whole
// instead; the path grammar has no syntax for it, and only
// programmatically built filters (JSON_TABLE prefilters, whose context
// item must be the very node a row takes its columns from) set it.
type FilterStep struct {
	Pred     Predicate
	NoUnwrap bool
}

func (FieldStep) isStep()      {}
func (WildcardStep) isStep()   {}
func (ArrayStep) isStep()      {}
func (DescendantStep) isStep() {}
func (FilterStep) isStep()     {}

// Predicate is a filter expression node.
type Predicate interface{ isPred() }

// AndPred is conjunction.
type AndPred struct{ L, R Predicate }

// OrPred is disjunction.
type OrPred struct{ L, R Predicate }

// NotPred is negation.
type NotPred struct{ P Predicate }

// ExistsPred tests whether the relative path yields any item.
type ExistsPred struct{ Path *Path }

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators of the SQL/JSON path language.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpStartsWith
	OpHasSubstring
)

// String renders the operator in path-expression syntax.
func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpStartsWith:
		return "starts with"
	case OpHasSubstring:
		return "has substring"
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(o))
}

// CmpPred compares two operands.
type CmpPred struct {
	Left  Operand
	Op    CmpOp
	Right Operand
}

func (AndPred) isPred()    {}
func (OrPred) isPred()     {}
func (NotPred) isPred()    {}
func (ExistsPred) isPred() {}
func (CmpPred) isPred()    {}

// Operand is a comparison operand: a literal or a relative path.
type Operand interface{ isOperand() }

// LiteralOperand is a scalar constant.
type LiteralOperand struct{ Value jsondom.Value }

// PathOperand is a path relative to the current filter item (@) or the
// root ($). Conv, when set, converts every scalar the path selects
// before it is compared; the path grammar has no syntax for it, so only
// programmatically built predicates (JSON_TABLE prefilters) carry one.
type PathOperand struct {
	Path *Path
	Conv Conversion
}

// Conversion names the scalar conversion a PathOperand applies: the
// coercion a JSON_TABLE column of the matching SQL type performs, so a
// predicate over the raw item compares what the column would hold.
type Conversion uint8

// Conversions. A scalar that does not convert (null, a non-numeric
// string under ConvNumber) drops out of the operand's sequence.
const (
	ConvNone   Conversion = iota
	ConvNumber            // NUMBER: numbers as is, numeric strings parsed, booleans 1/0
	ConvString            // VARCHAR2: strings as is, other scalars serialized
)

func (LiteralOperand) isOperand() {}
func (PathOperand) isOperand()    {}

// ParseError reports a syntax error in a path expression.
type ParseError struct {
	Input  string
	Offset int
	Msg    string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("jsonpath: %s at offset %d in %q", e.Msg, e.Offset, e.Input)
}

// Parse parses a SQL/JSON path expression such as
//
//	$.purchaseOrder.items[*].price
//	lax $.a[2 to 4, last-1]?(@.x > 10 && exists(@.y)).z
func Parse(input string) (*Path, error) {
	p := &parser{in: input}
	p.skipWS()
	lax := true
	if p.eatWord("strict") {
		lax = false
	} else {
		p.eatWord("lax")
	}
	p.skipWS()
	if !p.eat('$') {
		return nil, p.err("expected '$'")
	}
	steps, err := p.parseSteps()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos != len(p.in) {
		return nil, p.err("trailing characters")
	}
	return &Path{Lax: lax, Steps: steps, Text: input}, nil
}

// MustParse parses or panics; for static fixtures.
func MustParse(input string) *Path {
	pt, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return pt
}

type parser struct {
	in  string
	pos int
}

func (p *parser) err(msg string) error {
	return &ParseError{Input: p.in, Offset: p.pos, Msg: msg}
}

func (p *parser) skipWS() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' || p.in[p.pos] == '\n' || p.in[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) eat(c byte) bool {
	if p.pos < len(p.in) && p.in[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) peek() byte {
	if p.pos < len(p.in) {
		return p.in[p.pos]
	}
	return 0
}

// eatWord consumes an identifier word exactly (with word boundary).
func (p *parser) eatWord(w string) bool {
	end := p.pos + len(w)
	if end > len(p.in) || p.in[p.pos:end] != w {
		return false
	}
	if end < len(p.in) && isIdentChar(p.in[end]) {
		return false
	}
	p.pos = end
	return true
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '$' || c >= '0' && c <= '9' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80
}

func isIdentStart(c byte) bool {
	return isIdentChar(c) && !(c >= '0' && c <= '9')
}

func (p *parser) parseSteps() ([]Step, error) {
	var steps []Step
	for {
		p.skipWS()
		switch {
		case p.eat('.'):
			if p.eat('.') {
				// descendant step $..name
				name, err := p.parseName()
				if err != nil {
					return nil, err
				}
				steps = append(steps, DescendantStep{Name: name})
				continue
			}
			if p.eat('*') {
				steps = append(steps, WildcardStep{})
				continue
			}
			name, err := p.parseName()
			if err != nil {
				return nil, err
			}
			steps = append(steps, FieldStep{Name: name})
		case p.eat('['):
			st, err := p.parseArrayStep()
			if err != nil {
				return nil, err
			}
			steps = append(steps, st)
		case p.eat('?'):
			if !p.eat('(') {
				return nil, p.err("expected '(' after '?'")
			}
			pred, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			p.skipWS()
			if !p.eat(')') {
				return nil, p.err("expected ')' closing filter")
			}
			steps = append(steps, FilterStep{Pred: pred})
		default:
			return steps, nil
		}
	}
}

func (p *parser) parseName() (string, error) {
	p.skipWS()
	if p.eat('"') {
		start := p.pos
		var sb strings.Builder
		for p.pos < len(p.in) {
			c := p.in[p.pos]
			if c == '"' {
				p.pos++
				return sb.String(), nil
			}
			if c == '\\' && p.pos+1 < len(p.in) {
				p.pos++
				sb.WriteByte(p.in[p.pos])
				p.pos++
				continue
			}
			sb.WriteByte(c)
			p.pos++
		}
		p.pos = start
		return "", p.err("unterminated quoted name")
	}
	if p.pos >= len(p.in) || !isIdentStart(p.in[p.pos]) {
		return "", p.err("expected field name")
	}
	start := p.pos
	for p.pos < len(p.in) && isIdentChar(p.in[p.pos]) {
		p.pos++
	}
	return p.in[start:p.pos], nil
}

func (p *parser) parseArrayStep() (Step, error) {
	p.skipWS()
	if p.eat('*') {
		p.skipWS()
		if !p.eat(']') {
			return nil, p.err("expected ']' after '*'")
		}
		return ArrayStep{Wildcard: true}, nil
	}
	var subs []Subscript
	for {
		from, err := p.parseIndex()
		if err != nil {
			return nil, err
		}
		sub := Subscript{From: from}
		p.skipWS()
		if p.eatWord("to") {
			to, err := p.parseIndex()
			if err != nil {
				return nil, err
			}
			sub.To = to
			sub.IsRange = true
		}
		subs = append(subs, sub)
		p.skipWS()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return ArrayStep{Subs: subs}, nil
		}
		return nil, p.err("expected ',' or ']' in array step")
	}
}

func (p *parser) parseIndex() (Index, error) {
	p.skipWS()
	if p.eatWord("last") {
		p.skipWS()
		if p.eat('-') {
			n, err := p.parseUint()
			if err != nil {
				return Index{}, err
			}
			return Index{Last: true, Back: n}, nil
		}
		return Index{Last: true}, nil
	}
	n, err := p.parseUint()
	if err != nil {
		return Index{}, err
	}
	return Index{Pos: n}, nil
}

func (p *parser) parseUint() (int, error) {
	p.skipWS()
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	if start == p.pos {
		return 0, p.err("expected non-negative integer")
	}
	n, err := strconv.Atoi(p.in[start:p.pos])
	if err != nil {
		return 0, p.err("integer overflow")
	}
	return n, nil
}

func (p *parser) parseOr() (Predicate, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		p.skipWS()
		if p.pos+1 < len(p.in) && p.in[p.pos] == '|' && p.in[p.pos+1] == '|' {
			p.pos += 2
			r, err := p.parseAnd()
			if err != nil {
				return nil, err
			}
			l = OrPred{L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseAnd() (Predicate, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipWS()
		if p.pos+1 < len(p.in) && p.in[p.pos] == '&' && p.in[p.pos+1] == '&' {
			p.pos += 2
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = AndPred{L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Predicate, error) {
	p.skipWS()
	if p.eat('!') {
		p.skipWS()
		if !p.eat('(') {
			return nil, p.err("expected '(' after '!'")
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.skipWS()
		if !p.eat(')') {
			return nil, p.err("expected ')'")
		}
		return NotPred{P: inner}, nil
	}
	if p.eatWord("exists") {
		p.skipWS()
		if !p.eat('(') {
			return nil, p.err("expected '(' after exists")
		}
		rel, err := p.parseRelPath()
		if err != nil {
			return nil, err
		}
		p.skipWS()
		if !p.eat(')') {
			return nil, p.err("expected ')' closing exists")
		}
		return ExistsPred{Path: rel}, nil
	}
	if p.peek() == '(' {
		// parenthesized subexpression (must not be a comparison group
		// operand; the path grammar keeps these distinct enough for our
		// subset by requiring comparisons to start with @, $ or literal)
		save := p.pos
		p.pos++
		inner, err := p.parseOr()
		if err == nil {
			p.skipWS()
			if p.eat(')') {
				return inner, nil
			}
		}
		p.pos = save
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Predicate, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	op, err := p.parseCmpOp()
	if err != nil {
		return nil, err
	}
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return CmpPred{Left: left, Op: op, Right: right}, nil
}

func (p *parser) parseCmpOp() (CmpOp, error) {
	p.skipWS()
	switch {
	case strings.HasPrefix(p.in[p.pos:], "=="):
		p.pos += 2
		return OpEq, nil
	case strings.HasPrefix(p.in[p.pos:], "!="):
		p.pos += 2
		return OpNe, nil
	case strings.HasPrefix(p.in[p.pos:], "<>"):
		p.pos += 2
		return OpNe, nil
	case strings.HasPrefix(p.in[p.pos:], "<="):
		p.pos += 2
		return OpLe, nil
	case strings.HasPrefix(p.in[p.pos:], ">="):
		p.pos += 2
		return OpGe, nil
	case p.eat('<'):
		return OpLt, nil
	case p.eat('>'):
		return OpGt, nil
	case p.eat('='):
		// tolerate single '=' as equality, common in user queries
		return OpEq, nil
	case p.eatWord("starts"):
		p.skipWS()
		if !p.eatWord("with") {
			return 0, p.err("expected 'with' after 'starts'")
		}
		return OpStartsWith, nil
	case p.eatWord("has"):
		p.skipWS()
		if !p.eatWord("substring") {
			return 0, p.err("expected 'substring' after 'has'")
		}
		return OpHasSubstring, nil
	}
	return 0, p.err("expected comparison operator")
}

func (p *parser) parseOperand() (Operand, error) {
	p.skipWS()
	c := p.peek()
	switch {
	case c == '@' || c == '$':
		rel, err := p.parseRelPath()
		if err != nil {
			return nil, err
		}
		return PathOperand{Path: rel}, nil
	case c == '"':
		s, err := p.parseName() // quoted string literal shares the scanner
		if err != nil {
			return nil, err
		}
		return LiteralOperand{Value: jsondom.String(s)}, nil
	case c == '-' || c >= '0' && c <= '9':
		start := p.pos
		if c == '-' {
			p.pos++
		}
		for p.pos < len(p.in) && (p.in[p.pos] >= '0' && p.in[p.pos] <= '9' || p.in[p.pos] == '.' ||
			p.in[p.pos] == 'e' || p.in[p.pos] == 'E' ||
			(p.pos > start && (p.in[p.pos] == '+' || p.in[p.pos] == '-') &&
				(p.in[p.pos-1] == 'e' || p.in[p.pos-1] == 'E'))) {
			p.pos++
		}
		n, err := jsondom.N(p.in[start:p.pos])
		if err != nil {
			return nil, p.err("invalid number literal")
		}
		return LiteralOperand{Value: n}, nil
	case p.eatWord("true"):
		return LiteralOperand{Value: jsondom.Bool(true)}, nil
	case p.eatWord("false"):
		return LiteralOperand{Value: jsondom.Bool(false)}, nil
	case p.eatWord("null"):
		return LiteralOperand{Value: jsondom.Null{}}, nil
	}
	return nil, p.err("expected operand (path, string, number, true, false, null)")
}

// parseRelPath parses '@' or '$' followed by steps, producing a Path
// whose Text begins with the anchor character. '@' paths are evaluated
// relative to the filter's context item; '$' paths from the document
// root.
func (p *parser) parseRelPath() (*Path, error) {
	p.skipWS()
	start := p.pos
	var anchor byte
	if p.eat('@') {
		anchor = '@'
	} else if p.eat('$') {
		anchor = '$'
	} else {
		return nil, p.err("expected '@' or '$'")
	}
	steps, err := p.parseSteps()
	if err != nil {
		return nil, err
	}
	text := string(anchor) + strings.TrimRight(p.in[start+1:p.pos], " \t\n\r")
	return &Path{Lax: true, Steps: steps, Text: text}, nil
}

// IsRootRelative reports whether a filter operand path is anchored at
// the document root ('$') rather than the context item ('@').
func (pt *Path) IsRootRelative() bool {
	return strings.HasPrefix(pt.Text, "$")
}

// String reconstructs a canonical textual form of the path.
func (pt *Path) String() string {
	var sb strings.Builder
	if !pt.Lax {
		sb.WriteString("strict ")
	}
	sb.WriteByte('$')
	writeSteps(&sb, pt.Steps)
	return sb.String()
}

func writeSteps(sb *strings.Builder, steps []Step) {
	for _, s := range steps {
		switch t := s.(type) {
		case FieldStep:
			sb.WriteByte('.')
			writeName(sb, t.Name)
		case WildcardStep:
			sb.WriteString(".*")
		case DescendantStep:
			sb.WriteString("..")
			writeName(sb, t.Name)
		case ArrayStep:
			sb.WriteByte('[')
			if t.Wildcard {
				sb.WriteByte('*')
			} else {
				for i, sub := range t.Subs {
					if i > 0 {
						sb.WriteByte(',')
					}
					writeIndex(sb, sub.From)
					if sub.IsRange {
						sb.WriteString(" to ")
						writeIndex(sb, sub.To)
					}
				}
			}
			sb.WriteByte(']')
		case FilterStep:
			sb.WriteString("?(")
			writePred(sb, t.Pred)
			sb.WriteByte(')')
		}
	}
}

func writeName(sb *strings.Builder, name string) {
	simple := len(name) > 0 && isIdentStart(name[0])
	for i := 0; simple && i < len(name); i++ {
		if !isIdentChar(name[i]) {
			simple = false
		}
	}
	if simple {
		sb.WriteString(name)
		return
	}
	sb.WriteByte('"')
	for i := 0; i < len(name); i++ {
		if name[i] == '"' || name[i] == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(name[i])
	}
	sb.WriteByte('"')
}

// quoteString writes a double-quoted, escaped string literal.
func quoteString(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('"')
}

func writeIndex(sb *strings.Builder, ix Index) {
	if ix.Last {
		sb.WriteString("last")
		if ix.Back > 0 {
			sb.WriteString("-")
			sb.WriteString(strconv.Itoa(ix.Back))
		}
		return
	}
	sb.WriteString(strconv.Itoa(ix.Pos))
}

func writePred(sb *strings.Builder, p Predicate) {
	switch t := p.(type) {
	case AndPred:
		writePred(sb, t.L)
		sb.WriteString(" && ")
		writePred(sb, t.R)
	case OrPred:
		writePred(sb, t.L)
		sb.WriteString(" || ")
		writePred(sb, t.R)
	case NotPred:
		sb.WriteString("!(")
		writePred(sb, t.P)
		sb.WriteByte(')')
	case ExistsPred:
		sb.WriteString("exists(")
		sb.WriteString(t.Path.Text)
		sb.WriteByte(')')
	case CmpPred:
		writeOperand(sb, t.Left)
		sb.WriteByte(' ')
		sb.WriteString(t.Op.String())
		sb.WriteByte(' ')
		writeOperand(sb, t.Right)
	}
}

func writeOperand(sb *strings.Builder, o Operand) {
	switch t := o.(type) {
	case PathOperand:
		sb.WriteString(t.Path.Text)
		switch t.Conv {
		case ConvNumber:
			sb.WriteString(".number()")
		case ConvString:
			sb.WriteString(".string()")
		}
	case LiteralOperand:
		switch v := t.Value.(type) {
		case jsondom.String:
			quoteString(sb, string(v))
		case jsondom.Number:
			sb.WriteString(string(v))
		case jsondom.Bool:
			if v {
				sb.WriteString("true")
			} else {
				sb.WriteString("false")
			}
		case jsondom.Null:
			sb.WriteString("null")
		}
	}
}

// FieldChain returns the leading run of plain field steps. Paths that
// are entirely a field chain (no arrays, wildcards, filters) admit the
// cheapest evaluation strategies; the DataGuide's flat paths and
// virtual-column paths have this shape.
func (pt *Path) FieldChain() (names []string, whole bool) {
	for _, s := range pt.Steps {
		f, ok := s.(FieldStep)
		if !ok {
			return names, false
		}
		names = append(names, f.Name)
	}
	return names, true
}

// HasFilter reports whether any step (recursively) is a filter.
func (pt *Path) HasFilter() bool {
	for _, s := range pt.Steps {
		if _, ok := s.(FilterStep); ok {
			return true
		}
	}
	return false
}
