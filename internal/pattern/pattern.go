// Package pattern implements the EventBridge-style event pattern language
// Octopus triggers use for filtering (§IV-D, Listing 1). A pattern is a
// JSON document whose structure mirrors the event: object fields recurse,
// and leaf values are arrays of matchers. A pattern matches when every
// field it mentions matches; absent fields fail unless tested with
// {"exists": false}.
//
// Supported matchers, following the AWS content-filtering syntax:
//
//	"literal"                          exact match (string, number, bool, null)
//	{"prefix": "re"}                   string prefix
//	{"suffix": "ed"}                   string suffix
//	{"equals-ignore-case": "ReD"}      case-insensitive equality
//	{"wildcard": "*.tif"}              glob with '*'
//	{"anything-but": ["a", "b"]}       negated equality
//	{"numeric": [">", 0, "<=", 42]}    numeric comparisons
//	{"exists": true}                   field presence test
//
// An array of matchers is an OR; fields are combined with AND.
//
// Events are matched on their raw bytes (MatchJSON, in scan.go): a
// trigger drops most of what it reads, so the filter builds no document.
package pattern

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Pattern is a compiled event pattern.
type Pattern struct {
	// fields are the keys the pattern names, sorted.
	fields []field
	// absentFail has bit i set when fields[i] fails on a document that
	// lacks the key: the state a scan of an object starts from.
	absentFail []uint64
}

type field struct {
	key string
	// nested is non-nil when the field recurses into a sub-object.
	nested *Pattern
	// matchers is the OR-list of leaf matchers over a present value; the
	// two exists tests are the flags below.
	matchers []matcher
	// anyPresent: the list holds {"exists": true}.
	anyPresent bool
	// absentOK: the list holds {"exists": false}.
	absentOK bool
}

// kind classifies a JSON value for the leaf matchers.
type kind uint8

const (
	kindNull kind = iota
	kindString
	kindNumber
	kindBool
	// kindOther is an object, or an array inside an array: no literal
	// equals it, so of all matchers only anything-but accepts it.
	kindOther
)

// value is one scalar of an event as the matchers see it. s holds the
// decoded bytes of a string and may alias the event.
type value struct {
	kind kind
	s    []byte
	f    float64
	b    bool
}

type matcher interface {
	match(v value) bool
}

// Compile parses a JSON pattern document.
func Compile(src []byte) (*Pattern, error) {
	var doc map[string]any
	if err := json.Unmarshal(src, &doc); err != nil {
		return nil, fmt.Errorf("pattern: invalid JSON: %w", err)
	}
	return compileObject(doc)
}

// MustCompile is Compile that panics on error, for static patterns.
func MustCompile(src string) *Pattern {
	p, err := Compile([]byte(src))
	if err != nil {
		panic(err)
	}
	return p
}

func compileObject(doc map[string]any) (*Pattern, error) {
	if len(doc) == 0 {
		return nil, errors.New("pattern: empty pattern object")
	}
	keys := make([]string, 0, len(doc))
	for key := range doc {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	p := &Pattern{
		fields:     make([]field, len(keys)),
		absentFail: make([]uint64, (len(keys)+63)/64),
	}
	for i, key := range keys {
		f := &p.fields[i]
		f.key = key
		switch v := doc[key].(type) {
		case map[string]any:
			nested, err := compileObject(v)
			if err != nil {
				return nil, fmt.Errorf("pattern: field %q: %w", key, err)
			}
			f.nested = nested
		case []any:
			if len(v) == 0 {
				return nil, fmt.Errorf("pattern: field %q: matcher list is empty", key)
			}
			for _, m := range v {
				if err := f.addMatcher(m); err != nil {
					return nil, fmt.Errorf("pattern: field %q: %w", key, err)
				}
			}
		default:
			return nil, fmt.Errorf("pattern: field %q: value must be an object or an array of matchers", key)
		}
		if !f.absentOK {
			p.absentFail[i/64] |= 1 << (i % 64)
		}
	}
	return p, nil
}

// addMatcher compiles one entry of a leaf field's OR-list.
func (f *field) addMatcher(m any) error {
	if v, ok := scalarOf(m); ok {
		f.matchers = append(f.matchers, literalMatcher(v))
		return nil
	}
	obj, ok := m.(map[string]any)
	if !ok {
		return fmt.Errorf("unsupported matcher %v", m)
	}
	if len(obj) != 1 {
		return errors.New("matcher object must have exactly one operator")
	}
	for op, arg := range obj {
		if op == "exists" {
			b, ok := arg.(bool)
			if !ok {
				return errors.New("exists operand must be a bool")
			}
			f.anyPresent = f.anyPresent || b
			f.absentOK = f.absentOK || !b
			return nil
		}
		cm, err := compileOp(op, arg)
		if err != nil {
			return err
		}
		f.matchers = append(f.matchers, cm)
	}
	return nil
}

func compileOp(op string, arg any) (matcher, error) {
	switch op {
	case "prefix":
		s, ok := arg.(string)
		if !ok {
			return nil, errors.New("prefix operand must be a string")
		}
		return prefixMatcher(s), nil
	case "suffix":
		s, ok := arg.(string)
		if !ok {
			return nil, errors.New("suffix operand must be a string")
		}
		return suffixMatcher(s), nil
	case "equals-ignore-case":
		s, ok := arg.(string)
		if !ok {
			return nil, errors.New("equals-ignore-case operand must be a string")
		}
		return ciMatcher(s), nil
	case "wildcard":
		s, ok := arg.(string)
		if !ok {
			return nil, errors.New("wildcard operand must be a string")
		}
		return compileGlob(s), nil
	case "anything-but":
		list, ok := arg.([]any)
		if !ok {
			list = []any{arg}
		}
		m := make(anythingButMatcher, len(list))
		for i, n := range list {
			if m[i], ok = scalarOf(n); !ok {
				return nil, errors.New("anything-but operands must be strings, numbers, booleans or null")
			}
		}
		return m, nil
	case "numeric":
		terms, ok := arg.([]any)
		if !ok || len(terms) == 0 || len(terms)%2 != 0 {
			return nil, errors.New("numeric operand must be [op, value, ...] pairs")
		}
		nm := numericMatcher{}
		for i := 0; i < len(terms); i += 2 {
			cmp, ok := terms[i].(string)
			if !ok {
				return nil, errors.New("numeric comparison operator must be a string")
			}
			val, ok := terms[i+1].(float64)
			if !ok {
				return nil, errors.New("numeric comparison value must be a number")
			}
			switch cmp {
			case "<", "<=", ">", ">=", "=":
				nm.terms = append(nm.terms, numericTerm{op: cmp, val: val})
			default:
				return nil, fmt.Errorf("unsupported numeric comparison %q", cmp)
			}
		}
		return nm, nil
	}
	return nil, fmt.Errorf("unsupported operator %q", op)
}

// scalarOf converts a decoded JSON scalar; an object or array reports
// false and converts to kindOther.
func scalarOf(v any) (value, bool) {
	switch x := v.(type) {
	case nil:
		return value{kind: kindNull}, true
	case string:
		return value{kind: kindString, s: []byte(x)}, true
	case float64:
		return value{kind: kindNumber, f: x}, true
	case bool:
		return value{kind: kindBool, b: x}, true
	}
	return value{kind: kindOther}, false
}

// Match reports whether the decoded event document satisfies the
// pattern. It is the reference MatchJSON is tested against; nothing on
// the serving path builds a document.
func (p *Pattern) Match(doc map[string]any) bool {
	for i := range p.fields {
		f := &p.fields[i]
		v, present := doc[f.key]
		switch {
		case f.nested != nil:
			sub, ok := v.(map[string]any)
			if !ok || !f.nested.Match(sub) {
				return false
			}
		case !present:
			if !f.absentOK {
				return false
			}
		default:
			if !f.matchDecoded(v) {
				return false
			}
		}
	}
	return true
}

// matchDecoded evaluates a leaf field over a present, decoded value. If
// the value is an array, any element matching is a match, and an empty
// array stands for null (EventBridge semantics).
func (f *field) matchDecoded(v any) bool {
	if f.anyPresent {
		return true
	}
	arr, ok := v.([]any)
	if !ok {
		arr = []any{v}
	} else if len(arr) == 0 {
		arr = []any{nil}
	}
	for _, el := range arr {
		val, _ := scalarOf(el)
		if f.matchValue(val) {
			return true
		}
	}
	return false
}

// matchValue evaluates the OR-list over one value.
func (f *field) matchValue(v value) bool {
	for _, m := range f.matchers {
		if m.match(v) {
			return true
		}
	}
	return false
}

type literalMatcher value

func (m literalMatcher) match(v value) bool {
	if v.kind != m.kind {
		return false
	}
	switch m.kind {
	case kindString:
		return bytes.Equal(v.s, m.s)
	case kindNumber:
		return math.Abs(m.f-v.f) < 1e-12
	case kindBool:
		return v.b == m.b
	}
	return m.kind == kindNull
}

type prefixMatcher []byte

func (m prefixMatcher) match(v value) bool {
	return v.kind == kindString && bytes.HasPrefix(v.s, m)
}

type suffixMatcher []byte

func (m suffixMatcher) match(v value) bool {
	return v.kind == kindString && bytes.HasSuffix(v.s, m)
}

type ciMatcher []byte

func (m ciMatcher) match(v value) bool {
	return v.kind == kindString && bytes.EqualFold(v.s, m)
}

// wildcardMatcher is a glob split at its '*'s, each of which matches any
// run of bytes.
type wildcardMatcher [][]byte

func compileGlob(pat string) wildcardMatcher {
	return bytes.Split([]byte(pat), []byte("*"))
}

func (m wildcardMatcher) match(v value) bool {
	if v.kind != kindString {
		return false
	}
	s := v.s
	if len(m) == 1 {
		return bytes.Equal(s, m[0])
	}
	if !bytes.HasPrefix(s, m[0]) {
		return false
	}
	s = s[len(m[0]):]
	for _, part := range m[1 : len(m)-1] {
		idx := bytes.Index(s, part)
		if idx < 0 {
			return false
		}
		s = s[idx+len(part):]
	}
	return bytes.HasSuffix(s, m[len(m)-1])
}

type anythingButMatcher []value

func (m anythingButMatcher) match(v value) bool {
	for _, n := range m {
		if literalMatcher(n).match(v) {
			return false
		}
	}
	return true
}

type numericTerm struct {
	op  string
	val float64
}

type numericMatcher struct{ terms []numericTerm }

func (m numericMatcher) match(v value) bool {
	if v.kind != kindNumber {
		return false
	}
	f := v.f
	for _, t := range m.terms {
		switch t.op {
		case "<":
			if !(f < t.val) {
				return false
			}
		case "<=":
			if !(f <= t.val) {
				return false
			}
		case ">":
			if !(f > t.val) {
				return false
			}
		case ">=":
			if !(f >= t.val) {
				return false
			}
		case "=":
			if math.Abs(f-t.val) >= 1e-12 {
				return false
			}
		}
	}
	return true
}
