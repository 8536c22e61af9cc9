package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// FuzzFactorDecode: for every body, the fast factor decode either
// declines it, leaving the request untouched for the stdlib decoder,
// or produces exactly what that decoder produces — every field, and
// every Data entry to the bit.
func FuzzFactorDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast factorRequest
		if !decodeFactorFast(body, &fast) {
			if !reflect.DeepEqual(fast, factorRequest{}) {
				t.Fatalf("declined %q but wrote %+v", body, fast)
			}
			return
		}
		var ref factorRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		if err := dec.Decode(&ref); err != nil {
			t.Fatalf("accepted %q, which the decoder refuses: %v", body, err)
		}
		if _, err := dec.Token(); !errors.Is(err, io.EOF) {
			t.Fatalf("accepted %q, which has trailing data", body)
		}
		if len(fast.Data) != len(ref.Data) {
			t.Fatalf("%q: %d data entries, decoder has %d", body, len(fast.Data), len(ref.Data))
		}
		for i := range ref.Data {
			if math.Float64bits(fast.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("%q: data[%d] = %v, decoder has %v", body, i, fast.Data[i], ref.Data[i])
			}
		}
		fast.Data, ref.Data = nil, nil
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("%q: fields %+v, decoder has %+v", body, fast, ref)
		}
	})
}

// TestDecodeFactorFastScope pins which bodies take the fast path: one
// that declined everything would still pass FuzzFactorDecode.
func TestDecodeFactorFastScope(t *testing.T) {
	for body, want := range map[string]bool{
		`{"rows":1,"cols":2,"data":[1,2],"id":"f-1"}`: true,
		`{"data":[]}`:                    true,
		` { "data" : [ -0 , 1e-320 ] } `: true,
		`{"n":8,"seed":1}`:               false, // no matrix to parse
		`{"DATA":[1]}`:                   false,
		`{"data":[1],"data":[2]}`:        false,
		`{"data":[1,null]}`:              false,
		`{"data":[1e400]}`:               false,
		`{"data":[1]} {}`:                false,
	} {
		var req factorRequest
		if got := decodeFactorFast([]byte(body), &req); got != want {
			t.Errorf("fast path for %s: %v, want %v", body, got, want)
		}
	}
}
