// Package jsonbody reads the top level of a JSON object request body
// without decoding its member values. The serving tier uses it to look
// at or replace one member of a large body — the router's "id", the
// shard's "data" array — while every other byte passes through as the
// client sent it.
package jsonbody

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"unicode/utf8"
)

var (
	// ErrNotObject reports a body whose top-level value is not an
	// object.
	ErrNotObject = errors.New("request body must be a JSON object")
	// ErrMalformed reports a top-level object whose member list is
	// broken: a missing key, colon, comma or closing brace, an
	// unterminated value, or bytes after the object.
	ErrMalformed = errors.New("malformed JSON object")
)

// Member is one top-level member of a JSON object.
type Member struct {
	// Key is the unescaped member name, the string encoding/json
	// matches against struct field tags.
	Key string
	// Start and End bound the member's value in the body: body[Start:End]
	// is the value exactly as sent.
	Start, End int
}

// Object walks the top-level object of body and returns its members in
// body order, duplicates included, together with the offset of its
// closing brace. Member values are only skipped, not validated: a
// caller checks them itself, with json.Valid on the whole body or by
// decoding what it keeps. When body is valid JSON, the only error is
// ErrNotObject.
func Object(body []byte) (members []Member, end int, err error) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, 0, ErrNotObject
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return nil, i, tail(body, i)
	}
	for {
		if i == len(body) || body[i] != '"' {
			return nil, 0, ErrMalformed
		}
		keyEnd := skipString(body, i)
		if keyEnd < 0 {
			return nil, 0, ErrMalformed
		}
		key, ok := unquote(body[i:keyEnd])
		i = skipSpace(body, keyEnd)
		if !ok || i == len(body) || body[i] != ':' {
			return nil, 0, ErrMalformed
		}
		start := skipSpace(body, i+1)
		stop := skipValue(body, start)
		if stop <= start {
			return nil, 0, ErrMalformed
		}
		members = append(members, Member{Key: key, Start: start, End: stop})
		switch i = skipSpace(body, stop); {
		case i == len(body):
			return nil, 0, ErrMalformed
		case body[i] == '}':
			return members, i, tail(body, i)
		case body[i] != ',':
			return nil, 0, ErrMalformed
		}
		i = skipSpace(body, i+1)
	}
}

// tail requires nothing but whitespace after the closing brace at end.
func tail(body []byte, end int) error {
	if skipSpace(body, end+1) != len(body) {
		return ErrMalformed
	}
	return nil
}

// Floats parses value as encoding/json decodes an array of numbers
// into a []float64: each element goes through strconv.ParseFloat, the
// call encoding/json makes, so the results are bit-identical. ok is
// false unless value is exactly one JSON array whose elements are all
// valid JSON numbers in the float64 range.
func Floats(value []byte) (vals []float64, ok bool) {
	if len(value) == 0 || value[0] != '[' {
		return nil, false
	}
	vals = []float64{}
	i := skipSpace(value, 1)
	if i < len(value) && value[i] == ']' {
		return vals, i == len(value)-1
	}
	for {
		j := numberEnd(value, i)
		if j == i {
			return nil, false
		}
		f, err := strconv.ParseFloat(string(value[i:j]), 64)
		if err != nil {
			return nil, false
		}
		vals = append(vals, f)
		switch i = skipSpace(value, j); {
		case i == len(value):
			return nil, false
		case value[i] == ']':
			return vals, i == len(value)-1
		case value[i] != ',':
			return nil, false
		}
		i = skipSpace(value, i+1)
	}
}

// numberEnd returns the offset just past the JSON number
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? starting at b[i], or i
// when no number starts there.
func numberEnd(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = digits(b, j)
	default:
		return i
	}
	if j < len(b) && b[j] == '.' {
		if k := digits(b, j+1); k > j+1 {
			j = k
		} else {
			return i
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		if d := digits(b, k); d > k {
			j = d
		} else {
			return i
		}
	}
	return j
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the offset just past the string starting at b[i],
// or -1 when it is not terminated.
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// skipValue returns the offset just past the value starting at b[i]
// (at most len(b)), or -1 when a string or container in it is not
// terminated. It tracks strings and nesting only; it does not check
// that the value is valid.
func skipValue(b []byte, i int) int {
	if i == len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		if b[i] == '[' {
			if end := skipFlatArray(b, i); end > 0 {
				return end
			}
		}
		for depth := 0; i < len(b); i++ {
			switch b[i] {
			case '"':
				if i = skipString(b, i); i < 0 {
					return -1
				}
				i-- // the loop's i++ steps past the closing quote
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	}
	// A number or a literal runs to the next delimiter.
	for ; i < len(b); i++ {
		switch b[i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return i
		}
	}
	return i
}

// skipFlatArray returns the offset just past the array starting at
// b[i] when it holds no string and no container — the shape of a
// matrix — and -1 otherwise, where skipValue's loop takes over with
// the same result. It looks at 4 KiB at a time with IndexByte, far
// faster than a byte loop. Each chunk is cut at its first quote: any
// later member starts with a quoted key, so the scans never run past
// this value into the rest of the body, and a body of many short
// values stays linear.
func skipFlatArray(b []byte, i int) int {
	const chunk = 4 << 10
	for p := i + 1; p < len(b); p += chunk {
		c := b[p:min(p+chunk, len(b))]
		quote := bytes.IndexByte(c, '"')
		if quote >= 0 {
			c = c[:quote]
		}
		end := bytes.IndexByte(c, ']')
		if end >= 0 {
			c = c[:end]
		}
		if bytes.IndexByte(c, '[') >= 0 || bytes.IndexByte(c, '{') >= 0 || bytes.IndexByte(c, '}') >= 0 {
			return -1
		}
		if end >= 0 {
			return p + end + 1
		}
		if quote >= 0 {
			return -1
		}
	}
	return -1
}

// unquote decodes a JSON string literal the way encoding/json does; ok
// is false when s is not a valid literal. Plain ASCII is returned as
// is; anything else goes through encoding/json.
func unquote(s []byte) (string, bool) {
	inner := s[1 : len(s)-1]
	for _, c := range inner {
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			var out string
			err := json.Unmarshal(s, &out)
			return out, err == nil
		}
	}
	return string(inner), true
}
