package httpapi

import (
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"dynfd"
)

// changeRequest is one change of a batch request body
// ({"changes":[...]} on POST /v1/tenants/{t}/batch). The tags name the
// wire fields.
type changeRequest struct {
	Op     string   `json:"op"`
	ID     *int64   `json:"id,omitempty"`
	Values []string `json:"values,omitempty"`
}

// decodeBatch parses and validates a batch request body. maxChanges <= 0
// disables the change-count cap. It is the fuzzed decode surface: any
// input must either yield a clean error or a fully validated change list.
func decodeBatch(data []byte, maxChanges int) ([]dynfd.Change, error) {
	reqs, err := parseBatch(data)
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("batch has no changes")
	}
	if maxChanges > 0 && len(reqs) > maxChanges {
		return nil, fmt.Errorf("batch has %d changes (limit %d)", len(reqs), maxChanges)
	}
	changes := make([]dynfd.Change, len(reqs))
	for i, c := range reqs {
		switch c.Op {
		case "insert":
			if c.ID != nil {
				return nil, fmt.Errorf("change %d: insert must not carry an id", i)
			}
			if c.Values == nil {
				return nil, fmt.Errorf("change %d: insert requires values", i)
			}
			changes[i] = dynfd.Insert(c.Values...)
		case "delete":
			if c.ID == nil {
				return nil, fmt.Errorf("change %d: delete requires an id", i)
			}
			if c.Values != nil {
				return nil, fmt.Errorf("change %d: delete must not carry values", i)
			}
			changes[i] = dynfd.Delete(*c.ID)
		case "update":
			if c.ID == nil {
				return nil, fmt.Errorf("change %d: update requires an id", i)
			}
			if c.Values == nil {
				return nil, fmt.Errorf("change %d: update requires values", i)
			}
			changes[i] = dynfd.Update(*c.ID, c.Values...)
		default:
			return nil, fmt.Errorf("change %d: unknown op %q", i, c.Op)
		}
	}
	return changes, nil
}

// parseBatch reads a batch request body in one pass over its bytes. It
// accepts exactly the bodies that encoding/json's Decoder accepts into
// {"changes": []changeRequest} with DisallowUnknownFields, followed by
// nothing More reports — whitespace, then the end or a ']' or '}' — and
// builds the same requests, quirks included:
//
//   - keys match a field exactly or after folding each rune to the
//     smallest rune of its Unicode case-fold set ("CHANGES", "ſ" for "s");
//   - a repeated key decodes into what the earlier one left: elements are
//     merged into the slots already there, reusing a slice's spare
//     capacity as reflect's SetLen does, and a slice grows as append does;
//   - null clears a slice or the id and leaves an op, a value or a whole
//     change untouched;
//   - ids are decimal integers in int64 range;
//   - strings unescape as encoding/json's do, with lone surrogates and
//     invalid UTF-8 bytes replaced by U+FFFD.
//
// Every other body — invalid JSON, unknown fields, values of the wrong
// type — is rejected; only the wording of the error differs.
func parseBatch(data []byte) ([]changeRequest, error) {
	p := batchParser{data: data}
	var reqs []changeRequest
	p.space()
	if err := p.open('{', "batch object"); err != nil {
		return nil, err
	}
	err := p.object(func(key []byte) error {
		if !matchField(key, "changes") {
			return fmt.Errorf("unknown field %q", key)
		}
		return p.changeList(&reqs)
	})
	if err != nil {
		return nil, err
	}
	p.space()
	if p.off < len(p.data) && p.data[p.off] != ']' && p.data[p.off] != '}' {
		return nil, fmt.Errorf("trailing data after JSON value")
	}
	return reqs, nil
}

// batchParser is parseBatch's cursor over the body.
type batchParser struct {
	data []byte
	off  int
	buf  []byte   // the last unescaped string
	vals []string // the unused rest of the current value arena
}

func (p *batchParser) peek() byte {
	if p.off < len(p.data) {
		return p.data[p.off]
	}
	return 0
}

func (p *batchParser) space() {
	for p.off < len(p.data) {
		switch p.data[p.off] {
		case ' ', '\t', '\n', '\r':
			p.off++
		default:
			return
		}
	}
}

// unexpected reports the byte at the cursor where want was expected.
func (p *batchParser) unexpected(want string) error {
	if p.off >= len(p.data) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", p.data[p.off], p.off, want)
}

// open consumes the opening delimiter of a value that must be an object
// or array; anything else is a syntax or type error.
func (p *batchParser) open(c byte, want string) error {
	if p.peek() != c {
		return p.unexpected(want)
	}
	p.off++
	return nil
}

// null consumes a null literal at the cursor.
func (p *batchParser) null() error {
	if len(p.data)-p.off < 4 || string(p.data[p.off:p.off+4]) != "null" {
		return p.unexpected("null")
	}
	p.off += 4
	return nil
}

// object reads the members of an object whose '{' is consumed, handing
// member each unescaped key with the cursor on the value.
func (p *batchParser) object(member func(key []byte) error) error {
	p.space()
	if p.peek() == '}' {
		p.off++
		return nil
	}
	for {
		if p.peek() != '"' {
			return p.unexpected("object key")
		}
		key, err := p.str()
		if err != nil {
			return err
		}
		p.space()
		if p.peek() != ':' {
			return p.unexpected("':' after object key")
		}
		p.off++
		p.space()
		if err := member(key); err != nil {
			return err
		}
		p.space()
		switch p.peek() {
		case ',':
			p.off++
			p.space()
		case '}':
			p.off++
			return nil
		default:
			return p.unexpected("',' or '}' after object member")
		}
	}
}

// array reads the elements of an array whose '[' is consumed, calling
// elem with each element's index and the cursor on it. It returns the
// element count.
func (p *batchParser) array(elem func(i int) error) (int, error) {
	p.space()
	if p.peek() == ']' {
		p.off++
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		p.space()
		switch p.peek() {
		case ',':
			p.off++
			p.space()
		case ']':
			p.off++
			return i + 1, nil
		default:
			return 0, p.unexpected("',' or ']' after array element")
		}
	}
}

// changeList decodes the "changes" value into *dst.
func (p *batchParser) changeList(dst *[]changeRequest) error {
	if p.peek() == 'n' {
		*dst = nil
		return p.null()
	}
	if err := p.open('[', `"changes" array`); err != nil {
		return err
	}
	s := *dst
	n, err := p.array(func(i int) error {
		s = slot(s, i)
		return p.change(&s[i])
	})
	if err != nil {
		return err
	}
	*dst = truncate(s, n)
	return nil
}

// change decodes one element of "changes" into c.
func (p *batchParser) change(c *changeRequest) error {
	if p.peek() == 'n' {
		return p.null()
	}
	if err := p.open('{', "change object"); err != nil {
		return err
	}
	return p.object(func(key []byte) error {
		switch {
		case matchField(key, "op"):
			if p.peek() == 'n' {
				return p.null()
			}
			if p.peek() != '"' {
				return p.unexpected(`"op" string`)
			}
			op, err := p.str()
			if err != nil {
				return err
			}
			switch string(op) {
			case "insert":
				c.Op = "insert"
			case "delete":
				c.Op = "delete"
			case "update":
				c.Op = "update"
			default:
				c.Op = string(op)
			}
			return nil
		case matchField(key, "id"):
			if p.peek() == 'n' {
				c.ID = nil
				return p.null()
			}
			id, err := p.integer()
			if err != nil {
				return err
			}
			if c.ID == nil {
				c.ID = new(int64)
			}
			*c.ID = id
			return nil
		case matchField(key, "values"):
			return p.values(&c.Values)
		}
		return fmt.Errorf("unknown field %q", key)
	})
}

// values decodes a "values" value into *dst.
func (p *batchParser) values(dst *[]string) error {
	if p.peek() == 'n' {
		*dst = nil
		return p.null()
	}
	if err := p.open('[', `"values" array`); err != nil {
		return err
	}
	s := *dst
	fresh := cap(s) == 0
	if fresh {
		if len(p.vals) < minValueArena {
			p.vals = make([]string, valueArena)
		}
		s = p.vals[:0]
	}
	n, err := p.array(func(i int) error {
		s = slot(s, i)
		if p.peek() == 'n' {
			return p.null()
		}
		if p.peek() != '"' {
			return p.unexpected("value string")
		}
		v, err := p.str()
		if err != nil {
			return err
		}
		s[i] = string(v)
		return nil
	})
	if err != nil {
		return err
	}
	switch {
	case fresh && n > len(p.vals):
		// The list outgrew the arena and left values in its slots; a
		// fresh list must start on zero slots.
		p.vals = nil
	case fresh && n > 0:
		// The values fit the arena: keep them there, and cap the slice
		// so a later decode into it grows out instead of overwriting
		// the next change's values.
		p.vals = p.vals[n:]
		s = s[:n:n]
	}
	*dst = truncate(s, n)
	return nil
}

// The value lists of a body's changes are carved from shared arenas
// of valueArena strings; a fresh arena replaces one with fewer than
// minValueArena left.
const (
	valueArena    = 512
	minValueArena = 64
)

// slot makes s[i] addressable for element i of an array being decoded
// into s, as encoding/json does: extend the length over the spare
// capacity, whose slots keep whatever an earlier, longer decode left
// there, and grow when full. Growth copies every slot up to the capacity
// and adds zero slots, so how far it grows is not observable: a slot
// past the longest length reached so far is zero either way.
func slot[T any](s []T, i int) []T {
	if i >= cap(s) {
		var zero T
		s = append(s, zero)
	}
	if i >= len(s) {
		s = s[:i+1]
	}
	return s
}

// truncate finishes decoding n elements into s: the length drops to n,
// and an empty array replaces s with a fresh empty, non-nil slice.
func truncate[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

// str reads the string at the cursor and returns its unescaped bytes,
// which alias the body or p.buf until the next call.
func (p *batchParser) str() ([]byte, error) {
	start := p.off + 1
	for i := start; i < len(p.data); {
		switch c := p.data[i]; {
		case c == '"':
			p.off = i + 1
			return p.data[start:i], nil
		case c == '\\':
			return p.unescape(start, i)
		case c < ' ':
			p.off = i
			return nil, p.unexpected("string character")
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(p.data[i:])
			if r == utf8.RuneError && size == 1 {
				return p.unescape(start, i)
			}
			i += size
		}
	}
	p.off = len(p.data)
	return nil, p.unexpected("closing '\"'")
}

// unescape finishes the string that began at start, from its first byte
// at i that needs rewriting, into p.buf.
func (p *batchParser) unescape(start, i int) ([]byte, error) {
	b := append(p.buf[:0], p.data[start:i]...)
	for i < len(p.data) {
		switch c := p.data[i]; {
		case c == '"':
			p.off = i + 1
			p.buf = b
			return b, nil
		case c == '\\':
			if i+1 >= len(p.data) {
				p.off = len(p.data)
				return nil, p.unexpected("escape")
			}
			switch e := p.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(p.data[i+2:])
				if r < 0 {
					p.off = i
					return nil, p.unexpected(`\u and four hex digits`)
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if len(p.data)-i >= 2 && p.data[i] == '\\' && p.data[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(p.data[i+2:])); pair != unicode.ReplacementChar {
							b = utf8.AppendRune(b, pair)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				p.off = i + 1
				return nil, p.unexpected("escape character")
			}
			i += 2
		case c < ' ':
			p.off = i
			return nil, p.unexpected("string character")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(p.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	p.off = len(p.data)
	p.buf = b
	return nil, p.unexpected("closing '\"'")
}

// hex4 decodes four hex digits at the front of b, or returns -1.
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

// integer reads an id: a JSON number that is a decimal integer in int64
// range. Any other number — a fraction, an exponent, out of range — does
// not decode into an int64, and anything else is not a number.
func (p *batchParser) integer() (int64, error) {
	start := p.off
	neg := p.peek() == '-'
	if neg {
		p.off++
	}
	digits := p.off
	var u uint64
	for p.off < len(p.data) && '0' <= p.data[p.off] && p.data[p.off] <= '9' {
		if u > (1<<63)/10 {
			return 0, fmt.Errorf("id at offset %d overflows int64", start)
		}
		u = u*10 + uint64(p.data[p.off]-'0')
		p.off++
	}
	switch n := p.off - digits; {
	case n == 0:
		return 0, p.unexpected(`"id" integer`)
	case n > 1 && p.data[digits] == '0':
		return 0, fmt.Errorf("id %s has a leading zero", p.data[start:p.off])
	}
	if c := p.peek(); c == '.' || c == 'e' || c == 'E' {
		return 0, fmt.Errorf("id at offset %d is not an integer", start)
	}
	if neg {
		if u > 1<<63 {
			return 0, fmt.Errorf("id %s overflows int64", p.data[start:p.off])
		}
		return -int64(u), nil
	}
	if u > 1<<63-1 {
		return 0, fmt.Errorf("id %s overflows int64", p.data[start:p.off])
	}
	return int64(u), nil
}

// matchField reports whether key names the field name (lower-case ASCII)
// the way encoding/json matches keys: exactly, or equal after folding
// every rune to the smallest rune of its Unicode case-fold set.
func matchField(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	j := 0
	for i := 0; i < len(key); j++ {
		r, size := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		if j >= len(name) || r != rune(name[j]-('a'-'A')) {
			return false
		}
		i += size
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's case-fold set.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
