package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseInvokeRequest: ParseInvokeRequest, the daemon's decoder of
// untrusted request bodies, never panics, a body it accepts is one valid
// JSON value, and a request it accepts marshals and re-parses to an equal
// value — the cell the daemon resolves is the cell the client wrote. Seeds
// live in testdata/fuzz/FuzzParseInvokeRequest.
func FuzzParseInvokeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, env := ParseInvokeRequest(body)
		if env != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted a body that is not one JSON value: %q", body)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		back, env := ParseInvokeRequest(again)
		if env != nil {
			t.Fatalf("re-parse of an accepted request rejected: %v", env)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", req, back)
		}
	})
}

// FuzzDecodeMetrics: DecodeMetrics, which reads a daemon's /metrics answer
// for ignite-load, never panics, and a document it accepts marshals and
// decodes to an equal value. Seeds live in testdata/fuzz/FuzzDecodeMetrics.
func FuzzDecodeMetrics(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := DecodeMetrics(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		back, err := DecodeMetrics(again)
		if err != nil {
			t.Fatalf("re-decode of an accepted document rejected: %v", err)
		}
		if !reflect.DeepEqual(doc, back) {
			t.Fatalf("round trip changed the document:\n%+v\n%+v", doc, back)
		}
	})
}
