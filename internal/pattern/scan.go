package pattern

import (
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// MatchJSON evaluates the pattern against a raw JSON event without
// building a document: one pass over the bytes that descends only into
// the keys the pattern names and skips, but still validates, everything
// else. The answer is exactly that of json.Unmarshal into a
// map[string]any followed by Match — the last of duplicate keys wins,
// invalid UTF-8 reads as U+FFFD, and whatever Unmarshal rejects (bad
// syntax, trailing bytes, a number float64 cannot hold, nesting deeper
// than 10000, a top-level value other than an object or null) does not
// match. It allocates only to decode a string of a named field that
// holds escapes or invalid UTF-8.
func (p *Pattern) MatchJSON(raw []byte) bool {
	s := scanner{data: raw}
	s.space()
	var matched, ok bool
	if s.peek() == '{' {
		matched, ok = s.object(p, 1)
	} else {
		// Unmarshal leaves the map nil on a top-level null.
		matched, ok = p.Match(nil), s.word("null")
	}
	s.space()
	return matched && ok && s.pos == len(raw)
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// scanner walks a JSON text. Its methods that return ok report false on
// input json.Unmarshal would reject; the position is then meaningless.
type scanner struct {
	data []byte
	pos  int
}

// peek returns the byte at the position, 0 at the end of the input (a
// byte no JSON token starts with).
func (s *scanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// word consumes the literal w.
func (s *scanner) word(w string) bool {
	if len(s.data)-s.pos < len(w) || string(s.data[s.pos:s.pos+len(w)]) != w {
		return false
	}
	s.pos += len(w)
	return true
}

// open steps into the container at the position, whose closing byte is
// closer, and reports whether it is empty (and then stepped over).
func (s *scanner) open(closer byte) (empty bool) {
	s.pos++
	s.space()
	if s.peek() != closer {
		return false
	}
	s.pos++
	return true
}

// more consumes what follows an element of a container: a comma, after
// which another element follows, or closer.
func (s *scanner) more(closer byte) (more, ok bool) {
	s.space()
	switch s.peek() {
	case ',':
		s.pos++
		s.space()
		return true, true
	case closer:
		s.pos++
		return false, true
	}
	return false, false
}

// key scans an object key and its colon, up to the value.
func (s *scanner) key() (raw []byte, plain, ok bool) {
	raw, plain, ok = s.str()
	s.space()
	if !ok || s.peek() != ':' {
		return nil, false, false
	}
	s.pos++
	s.space()
	return raw, plain, true
}

// object scans the object at the position, the depth'th container
// around its members, and reports whether it satisfies p.
func (s *scanner) object(p *Pattern, depth int) (matched, ok bool) {
	if depth > maxDepth {
		return false, false
	}
	// fail has bit i set while the last value seen for p.fields[i] (or
	// its absence) fails the field. Patterns naming more than 128 keys
	// in one object spill to the heap.
	var buf [2]uint64
	fail := append(buf[:0], p.absentFail...)
	for more := !s.open('}'); more; {
		key, plain, ok := s.key()
		if !ok {
			return false, false
		}
		if i := p.index(key, plain); i < 0 {
			_, ok = s.value(depth, false)
		} else {
			var m bool
			if m, ok = s.fieldValue(&p.fields[i], depth); m {
				fail[i/64] &^= 1 << (i % 64)
			} else {
				fail[i/64] |= 1 << (i % 64)
			}
		}
		if !ok {
			return false, false
		}
		if more, ok = s.more('}'); !ok {
			return false, false
		}
	}
	for _, w := range fail {
		if w != 0 {
			return false, true
		}
	}
	return true, true
}

// index returns the position in p.fields of the key whose raw bytes
// (between the quotes) are given, or -1. plain says raw is its own
// decoding.
func (p *Pattern) index(raw []byte, plain bool) int {
	if !plain {
		var buf [64]byte
		raw = appendUnquoted(buf[:0], raw)
	}
	for i := range p.fields {
		if p.fields[i].key == string(raw) {
			return i
		}
	}
	return -1
}

// fieldValue scans the value at the position, a member of the depth'th
// container, and evaluates field f over it.
func (s *scanner) fieldValue(f *field, depth int) (matched, ok bool) {
	if f.nested != nil {
		if s.peek() == '{' {
			return s.object(f.nested, depth+1)
		}
		_, ok = s.value(depth, false)
		return false, ok
	}
	matched = f.anyPresent
	if s.peek() != '[' {
		v, ok := s.value(depth, !matched)
		return matched || f.matchValue(v), ok
	}
	// An array matches when any element does; an empty one stands for
	// null. Once matched, the rest is only validated.
	depth++
	if depth > maxDepth {
		return false, false
	}
	if s.open(']') {
		return matched || f.matchValue(value{kind: kindNull}), true
	}
	for more := true; more; {
		v, ok := s.value(depth, !matched)
		if !ok {
			return false, false
		}
		matched = matched || f.matchValue(v)
		if more, ok = s.more(']'); !ok {
			return false, false
		}
	}
	return matched, true
}

// value scans the value at the position, a member of the depth'th
// container. With want set it decodes a scalar for the matchers (an
// object or array reads as kindOther); without, it only validates and
// the value returned means nothing.
func (s *scanner) value(depth int, want bool) (value, bool) {
	switch c := s.peek(); {
	case c == '"':
		raw, plain, ok := s.str()
		if want && !plain && ok {
			raw = appendUnquoted(nil, raw)
		}
		return value{kind: kindString, s: raw}, ok
	case c == '-' || '0' <= c && c <= '9':
		f, ok := s.number(want)
		return value{kind: kindNumber, f: f}, ok
	case c == 't':
		return value{kind: kindBool, b: true}, s.word("true")
	case c == 'f':
		return value{kind: kindBool}, s.word("false")
	case c == 'n':
		return value{kind: kindNull}, s.word("null")
	case c == '{':
		return value{kind: kindOther}, s.skipContainer('}', depth+1)
	case c == '[':
		return value{kind: kindOther}, s.skipContainer(']', depth+1)
	}
	return value{}, false
}

// skipContainer validates and steps over the object or array at the
// position, the depth'th container around its members.
func (s *scanner) skipContainer(closer byte, depth int) bool {
	if depth > maxDepth {
		return false
	}
	for more := !s.open(closer); more; {
		if closer == '}' {
			if _, _, ok := s.key(); !ok {
				return false
			}
		}
		if _, ok := s.value(depth, false); !ok {
			return false
		}
		var ok bool
		if more, ok = s.more(closer); !ok {
			return false
		}
	}
	return true
}

// str scans the string at the position and returns the bytes between
// its quotes. plain reports that they are their own decoding: no
// escapes, valid UTF-8.
func (s *scanner) str() (raw []byte, plain, ok bool) {
	if s.peek() != '"' {
		return nil, false, false
	}
	start := s.pos + 1
	plain = true
	highBit := false
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			raw = s.data[start:i]
			if highBit && plain {
				plain = utf8.Valid(raw)
			}
			return raw, plain, true
		case c == '\\':
			plain = false
			i++
			if i >= len(s.data) {
				return nil, false, false
			}
			switch s.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if hex4(s.data[i+1:]) < 0 {
					return nil, false, false
				}
				i += 4
			default:
				return nil, false, false
			}
		case c < ' ':
			return nil, false, false
		case c >= utf8.RuneSelf:
			highBit = true
		}
	}
	return nil, false, false
}

// hex4 decodes the four hex digits b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendUnquoted appends the decoding of raw, the validated inside of a
// JSON string, the way encoding/json decodes it: an unpaired surrogate
// escape and each byte of invalid UTF-8 become U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			esc := raw[i]
			i++
			switch esc {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i:])
				i += 4
				if utf16.IsSurrogate(r) {
					half := r
					r = unicode.ReplacementChar
					if i+1 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						// An escape that does not complete the pair is
						// left for the next round.
						if pair := utf16.DecodeRune(half, hex4(raw[i+2:])); pair != unicode.ReplacementChar {
							r = pair
							i += 6
						}
					}
				}
				dst = utf8.AppendRune(dst, r)
			default: // '"', '\\', '/'
				dst = append(dst, esc)
			}
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// number scans the number at the position. With want set it returns the
// value; otherwise it only rules out what json.Unmarshal would: bad
// syntax, and a magnitude float64 cannot hold.
func (s *scanner) number(want bool) (float64, bool) {
	start := s.pos
	i := start
	neg := s.data[i] == '-'
	if neg {
		i++
	}
	intStart := i
	var mant uint64
	for ; i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9'; i++ {
		mant = mant*10 + uint64(s.data[i]-'0') // only read when it cannot have wrapped
	}
	intDigits := i - intStart
	if intDigits == 0 || intDigits > 1 && s.data[intStart] == '0' {
		return 0, false
	}
	integer := true
	if i < len(s.data) && s.data[i] == '.' {
		integer = false
		i++
		fracStart := i
		for ; i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9'; i++ {
		}
		if i == fracStart {
			return 0, false
		}
	}
	exponent := false
	if i < len(s.data) && (s.data[i] == 'e' || s.data[i] == 'E') {
		exponent = true
		i++
		if i < len(s.data) && (s.data[i] == '+' || s.data[i] == '-') {
			i++
		}
		expStart := i
		for ; i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9'; i++ {
		}
		if i == expStart {
			return 0, false
		}
	}
	s.pos = i
	switch {
	case integer && !exponent && intDigits <= 15:
		// Below 2^53: the conversion is exact.
		f := float64(mant)
		if neg {
			f = -f
		}
		return f, true
	case want || exponent || intDigits > 308:
		f, err := strconv.ParseFloat(string(s.data[start:i]), 64)
		return f, err == nil
	}
	// Not wanted, and too few digits to overflow.
	return 0, true
}
