package metrics

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The line codec shared by the event stream and the span stream
// (internal/tracing). The writer appends the bytes encoding/json's Marshal
// would produce for the same value: map keys in sorted order, strings
// escaped the same way (HTML-significant <, > and &, control characters,
// U+2028 and U+2029, invalid UTF-8 as the escaped replacement character) and floats formatted the same
// way. The scanner reads one object per line and is stricter than
// encoding/json: keys match case-sensitively and at most once, every value
// has the type its field declares (no null), strings must be valid UTF-8,
// and nothing may follow the object. FuzzCodecMatchesEncodingJSON holds
// both halves to encoding/json.

const hexDigits = "0123456789abcdef"

// The ASCII bytes a string carries unescaped, as a 128-bit set: every
// printable byte but the quote, the backslash and HTML's <, > and &.
const (
	safeLow  uint64 = 0xffffffff00000000 &^ (1<<'"' | 1<<'&' | 1<<'<' | 1<<'>')
	safeHigh uint64 = 0xffffffffffffffff &^ (1 << ('\\' - 64))
)

// safeASCII reports whether c is an ASCII byte a string carries as is.
func safeASCII(c byte) bool {
	if c < 64 {
		return safeLow>>c&1 != 0
	}
	return c < 128 && safeHigh>>(c-64)&1 != 0
}

// AppendString appends s to b as a JSON string literal, escaped exactly as
// encoding/json escapes it.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if safeASCII(c) {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if r == 0x2028 || r == 0x2029 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f as encoding/json formats a float64: the shortest
// decimal that reads back as f, in positional form except below 1e-6 and
// from 1e21 up, where the exponent form has no leading zero in the
// exponent. NaN and the infinities have no JSON form and are an error.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendKey appends one object member's key and colon, preceded by a
// comma unless the member is the object's first (b ends with its '{').
func AppendKey(b []byte, key string) []byte {
	if len(b) > 0 && b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = AppendString(b, key)
	return append(b, ':')
}

// appendMap appends m as a JSON object, keys in sorted order and each
// value written by val.
func appendMap[V any](b []byte, m map[string]V, val func([]byte, V) ([]byte, error)) ([]byte, error) {
	var arr [16]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	var err error
	for _, k := range keys {
		b = AppendKey(b, k)
		if b, err = val(b, m[k]); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

func appendStringValue(b []byte, s string) ([]byte, error) { return AppendString(b, s), nil }

func appendIntValue(b []byte, v int64) ([]byte, error) { return strconv.AppendInt(b, v, 10), nil }

// Scanner reads one JSON object per line. Reset it on a line, open the
// object with Object, and loop over More: each true return has read one
// member's key (Key), whose value the caller then reads with the method
// for its type (Int, Float, String, or Object for a nested object).
// Finish checks that nothing follows the object and reports the first
// error. Strings are interned per scanner, so a stream's repeated tag
// keys, values and names share one copy.
type Scanner struct {
	line    []byte
	pos     int
	err     error
	opened  bool // an object was just opened: its first member needs no comma
	key     string
	names   map[string]string
	scratch []byte
}

// Reset starts reading line.
func (s *Scanner) Reset(line []byte) {
	s.line, s.pos, s.err, s.opened, s.key = line, 0, nil, false, ""
}

// Fail records err unless an earlier error is already recorded.
func (s *Scanner) Fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *Scanner) failf(format string, args ...any) {
	s.Fail(fmt.Errorf("offset %d: "+format, append([]any{s.pos}, args...)...))
}

func (s *Scanner) skipSpace() {
	for s.pos < len(s.line) {
		switch s.line[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// at reports whether the next non-space byte is c.
func (s *Scanner) at(c byte) bool {
	s.skipSpace()
	return s.pos < len(s.line) && s.line[s.pos] == c
}

func (s *Scanner) expect(c byte) bool {
	if s.err != nil {
		return false
	}
	if !s.at(c) {
		if s.pos == len(s.line) {
			s.failf("want %q, line ends", c)
		} else {
			s.failf("want %q, have %q", c, s.line[s.pos])
		}
		return false
	}
	s.pos++
	return true
}

// Object opens an object value.
func (s *Scanner) Object() {
	if s.expect('{') {
		s.opened = true
	}
}

// More reads the separator before the next member of the open object and
// that member's key. It returns false at the object's closing brace or
// after an error.
func (s *Scanner) More() bool {
	if s.err != nil {
		return false
	}
	if s.at('}') {
		s.pos++
		s.opened = false
		return false
	}
	if !s.opened && !s.expect(',') {
		return false
	}
	s.opened = false
	s.key = s.String()
	s.expect(':')
	return s.err == nil
}

// Key returns the key More read.
func (s *Scanner) Key() string { return s.key }

// Finish reports the first error on the line, or an error if anything but
// white space follows the object.
func (s *Scanner) Finish() error {
	if s.skipSpace(); s.err == nil && s.pos < len(s.line) {
		s.failf("trailing content %q", s.line[s.pos])
	}
	return s.err
}

// number returns the next JSON number literal (RFC 8259 grammar) and
// whether it has a fraction or an exponent.
func (s *Scanner) number() (lit []byte, real bool) {
	if s.err != nil {
		return nil, false
	}
	s.skipSpace()
	start := s.pos
	digits := func() int {
		n := 0
		for s.pos < len(s.line) && s.line[s.pos] >= '0' && s.line[s.pos] <= '9' {
			s.pos++
			n++
		}
		return n
	}
	if s.pos < len(s.line) && s.line[s.pos] == '-' {
		s.pos++
	}
	switch {
	case s.pos < len(s.line) && s.line[s.pos] == '0':
		s.pos++
	case digits() == 0:
		s.pos = start
		s.failf("want a number")
		return nil, false
	}
	if s.pos < len(s.line) && s.line[s.pos] == '.' {
		s.pos++
		real = true
		if digits() == 0 {
			s.failf("want a digit after the decimal point")
			return nil, false
		}
	}
	if s.pos < len(s.line) && (s.line[s.pos] == 'e' || s.line[s.pos] == 'E') {
		s.pos++
		real = true
		if s.pos < len(s.line) && (s.line[s.pos] == '+' || s.line[s.pos] == '-') {
			s.pos++
		}
		if digits() == 0 {
			s.failf("want a digit in the exponent")
			return nil, false
		}
	}
	return s.line[start:s.pos], real
}

// Int reads an integer that fits in an int64.
func (s *Scanner) Int() int64 {
	lit, real := s.number()
	if s.err != nil {
		return 0
	}
	if real {
		s.failf("%s is not an integer", lit)
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		s.failf("%s out of range", lit)
		return 0
	}
	return v
}

// float reads a number that fits in a float64.
func (s *Scanner) float() float64 {
	lit, _ := s.number()
	if s.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.failf("%s out of range", lit)
		return 0
	}
	return v
}

// String reads a string. Invalid UTF-8 and unpaired surrogate escapes are
// errors. A string without escapes is interned straight from the line;
// one with escapes is unescaped into scratch first.
func (s *Scanner) String() string {
	if !s.expect('"') {
		return ""
	}
	start, b, escaped := s.pos, s.scratch[:0], false
	for s.pos < len(s.line) {
		c := s.line[s.pos]
		switch {
		case c == '"':
			s.pos++
			if escaped {
				s.scratch = b[:0]
				return s.intern(b)
			}
			return s.intern(s.line[start : s.pos-1])
		case c < 0x20:
			s.failf("control character in string")
			return ""
		case c == '\\':
			if !escaped {
				b, escaped = append(b, s.line[start:s.pos]...), true
			}
			if b = s.unescape(b); s.err != nil {
				return ""
			}
		default:
			size := 1
			if c >= utf8.RuneSelf {
				var r rune
				if r, size = utf8.DecodeRune(s.line[s.pos:]); r == utf8.RuneError && size == 1 {
					s.failf("invalid UTF-8 in string")
					return ""
				}
			}
			if escaped {
				b = append(b, s.line[s.pos:s.pos+size]...)
			}
			s.pos += size
		}
	}
	s.failf("unterminated string")
	return ""
}

// unescape appends the character the escape at the read position stands
// for to b.
func (s *Scanner) unescape(b []byte) []byte {
	if s.pos+1 >= len(s.line) {
		s.failf("unterminated escape")
		return b
	}
	e := s.line[s.pos+1]
	s.pos += 2
	switch e {
	case '"', '\\', '/':
		return append(b, e)
	case 'b':
		return append(b, '\b')
	case 'f':
		return append(b, '\f')
	case 'n':
		return append(b, '\n')
	case 'r':
		return append(b, '\r')
	case 't':
		return append(b, '\t')
	case 'u':
		r := s.hex4()
		if utf16.IsSurrogate(r) {
			r = utf8.RuneError
			if s.pos+1 < len(s.line) && s.line[s.pos] == '\\' && s.line[s.pos+1] == 'u' {
				s.pos += 2
				r = utf16.DecodeRune(r, s.hex4())
			}
			if r == utf8.RuneError {
				s.failf("unpaired surrogate escape")
			}
		}
		return utf8.AppendRune(b, r)
	}
	s.failf("bad escape \\%c", e)
	return b
}

// hex4 reads the four hex digits of a \u escape.
func (s *Scanner) hex4() rune {
	if s.pos+4 > len(s.line) {
		s.failf("short \\u escape")
		return 0
	}
	var r rune
	for _, c := range s.line[s.pos : s.pos+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			s.failf("bad \\u escape")
			return 0
		}
		r = r<<4 | rune(c)
	}
	s.pos += 4
	return r
}

// intern returns b as a string, one copy per distinct value per scanner.
func (s *Scanner) intern(b []byte) string {
	if v, ok := s.names[string(b)]; ok {
		return v
	}
	if s.names == nil {
		s.names = make(map[string]string)
	}
	v := string(b)
	s.names[v] = v
	return v
}

// Seen marks field bit in *seen and fails on the field's second
// appearance. Decoders call it for each known key.
func (s *Scanner) Seen(seen *uint32, bit uint32) {
	if *seen&bit != 0 {
		s.failf("duplicate field %q", s.key)
	}
	*seen |= bit
}

// Unknown fails on the current key: it names no field.
func (s *Scanner) Unknown() { s.failf("unknown field %q", s.key) }

// Missing fails unless seen holds the first len(names) field bits,
// naming the first absent field (names[i] is bit 1<<i).
func (s *Scanner) Missing(seen uint32, names ...string) {
	for i, n := range names {
		if seen&(1<<i) == 0 {
			s.failf("missing field %q", n)
			return
		}
	}
}
