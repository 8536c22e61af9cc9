package jsonbody

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestObject(t *testing.T) {
	body := []byte(` {"a" : [1,{"]":"}"}] ,"bc":"x\"}", "d":null}  `)
	members, end, err := Object(body)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ key, value string }{
		{"a", `[1,{"]":"}"}]`},
		{"bc", `"x\"}"`},
		{"d", `null`},
	}
	if len(members) != len(want) {
		t.Fatalf("members %+v, want %d", members, len(want))
	}
	for i, m := range members {
		if m.Key != want[i].key || string(body[m.Start:m.End]) != want[i].value {
			t.Fatalf("member %d: %q = %s, want %q = %s", i, m.Key, body[m.Start:m.End], want[i].key, want[i].value)
		}
	}
	if body[end] != '}' || end != len(body)-3 {
		t.Fatalf("closing brace at %d, want %d", end, len(body)-3)
	}

	for body, want := range map[string]error{
		`{}`:            nil,
		`null`:          ErrNotObject,
		`[{}]`:          ErrNotObject,
		``:              ErrNotObject,
		`{"a":1} x`:     ErrMalformed,
		`{"a":1`:        ErrMalformed,
		`{"a" 1}`:       ErrMalformed,
		`{a:1}`:         ErrMalformed,
		`{"a":}`:        ErrMalformed,
		`{"a":[1}}`:     nil, // values are skipped, not validated
		`{"a":"1}`:      ErrMalformed,
		`{"a":1 "b":2}`: ErrMalformed,
	} {
		if _, _, err := Object([]byte(body)); !errors.Is(err, want) {
			t.Errorf("Object(%s): %v, want %v", body, err, want)
		}
	}
}

func TestFloats(t *testing.T) {
	vals, ok := Floats([]byte(`[ -0, 1e-320 ,2.5E+3,0.1]`))
	want := []float64{math.Copysign(0, -1), 1e-320, 2500, 0.1}
	if !ok || len(vals) != len(want) {
		t.Fatalf("Floats: %v %v, want %v", vals, ok, want)
	}
	for i := range want {
		if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Floats[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
	if vals, ok := Floats([]byte(`[]`)); !ok || vals == nil || len(vals) != 0 {
		t.Fatalf("empty array: %v %v, want a non-nil empty slice", vals, ok)
	}
	// Everything ParseFloat takes but JSON does not, and every value
	// encoding/json would not decode into []float64 as numbers.
	for _, v := range []string{
		`[01]`, `[1.]`, `[.5]`, `[+1]`, `[-]`, `[1e]`, `[1e+]`, `[0x10]`, `[Inf]`, `[NaN]`,
		`[1_0]`, `[1,]`, `[,1]`, `[1 2]`, `[1]]`, `[1] `, `[1`, `[null]`, `["1"]`, `[[1]]`,
		`[1e400]`, `null`, `{}`, ``,
	} {
		if vals, ok := Floats([]byte(v)); ok {
			t.Errorf("Floats(%s) = %v, want refused", v, vals)
		}
	}
}

// TestObjectLinear: the walker runs on bodies nobody has validated, so
// many short values ahead of one distant ']' must not make it scan to
// that bracket once per value.
func TestObjectLinear(t *testing.T) {
	const members = 300000
	body := []byte("{" + strings.Repeat(`"a":[},`, members) + `"z":[]}`)
	start := time.Now()
	got, _, err := Object(body)
	if err != nil || len(got) != members+1 {
		t.Fatalf("Object: %d members, %v; want %d", len(got), err, members+1)
	}
	// Linear is a few milliseconds; quadratic is minutes.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("walking %d bytes took %v", len(body), d)
	}
}

// TestSkipValueFlatArray: the chunked flat-array path ends exactly where
// the byte loop does, across chunk boundaries and when it must give up.
func TestSkipValueFlatArray(t *testing.T) {
	long := "[" + strings.Repeat("1.5,", 3000) + "2]"
	for _, v := range []string{
		long, long + ",1", "[1,[2]]", "[1,{}]", `[1,"]"]`, "[1}", "[" + strings.Repeat("1,", 5000) + "}",
		"[" + strings.Repeat("1,", 5000), "[]", long + `,"k":1`, "[" + strings.Repeat("1,", 5000) + `"]"]`,
	} {
		b := []byte(v)
		// The byte loop alone: structural bytes, none in a string.
		want := -1
		for depth, i := 0, 0; i >= 0 && i < len(b); i++ {
			switch b[i] {
			case '"':
				i = skipString(b, i) - 1
			case '[', '{':
				depth++
			case ']', '}':
				if depth--; depth == 0 {
					want, i = i+1, len(b)
				}
			}
		}
		if got := skipValue(b, 0); got != want {
			t.Errorf("skipValue(%.20q...) = %d, want %d", v, got, want)
		}
	}
}
