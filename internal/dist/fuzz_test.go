package dist

import (
	"encoding/json"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzParseTaskRequest: ParseTaskRequest never panics, a body it accepts
// is one valid JSON value, and a request it accepts marshals and re-parses
// to an equal value — the cell a worker computes is the cell the
// coordinator asked for. Seeds live in testdata/fuzz/FuzzParseTaskRequest.
func FuzzParseTaskRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, env := ParseTaskRequest(body)
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
		back, env := ParseTaskRequest(again)
		if env != nil {
			t.Fatalf("re-parse of an accepted request rejected: %v", env)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", req, back)
		}
	})
}

// FuzzTaskResponse: decoding arbitrary bytes as a TaskResponse and then its
// payload never panics, and a Cell whose CRC-32 differs from CRC is always
// rejected. Seeds live in testdata/fuzz/FuzzTaskResponse.
func FuzzTaskResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr TaskResponse
		if json.Unmarshal(data, &tr) != nil {
			return
		}
		if _, err := tr.DecodePayload(); err == nil && crc32.ChecksumIEEE(tr.Cell) != tr.CRC {
			t.Fatalf("cell with CRC %08x accepted under CRC %08x", crc32.ChecksumIEEE(tr.Cell), tr.CRC)
		}
		// A random CRC almost never matches; reseal it so the payload
		// decoder itself sees the fuzzed cell.
		tr.CRC = crc32.ChecksumIEEE(tr.Cell)
		tr.DecodePayload()
	})
}
