package cluster

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// member is one top-level member as encoding/json's token stream sees
// it: the unescaped key and the value's raw bytes.
type member struct {
	key   string
	value string
}

// topLevel lists body's top-level members with encoding/json alone;
// ok is false unless body is one valid JSON object.
func topLevel(body []byte) (members []member, ok bool) {
	if !json.Valid(body) {
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, false
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, false
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, false
		}
		members = append(members, member{key: tok.(string), value: string(v)})
	}
	return members, true
}

// FuzzRouterForward: the router accepts exactly the valid JSON objects
// without an "id" member, and the bytes it forwards decode to the
// client's members, in order and byte for byte, followed by its own
// key — which is what an encoding/json decode of "id" then yields.
func FuzzRouterForward(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		fb, err := parseFactorBody(body)
		orig, isObject := topLevel(body)
		hasID := false
		for _, m := range orig {
			hasID = hasID || m.key == "id"
		}
		if !isObject || hasID {
			if err == nil {
				t.Fatalf("accepted %q (object %v, has id %v)", body, isObject, hasID)
			}
			return
		}
		if err != nil {
			t.Fatalf("refused a valid object without id %q: %v", body, err)
		}
		const key = "f-7"
		fwd := fb.withID(key)
		got, ok := topLevel(fwd)
		if !ok {
			t.Fatalf("forwarded bytes are not one JSON object: %q", fwd)
		}
		want := append(orig, member{key: "id", value: `"` + key + `"`})
		if !slices.Equal(got, want) {
			t.Fatalf("forwarded members\n%v\nwant\n%v", got, want)
		}
		var req struct {
			ID string `json:"id"`
		}
		// A type error on another member (say "ID":1) does not stop
		// the decode, so req.ID is checked whatever the error.
		_ = json.Unmarshal(fwd, &req)
		if req.ID != key {
			t.Fatalf("forwarded body decodes to id %q, want %q: %q", req.ID, key, fwd)
		}
	})
}
