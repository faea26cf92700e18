package loadgen

import (
	"bytes"
	"testing"
)

// FuzzDecodeReport: DecodeReport never panics, and a report it accepts
// encodes to a document that decodes to an equal report. Equality is that
// of the encoded documents, because Encode omits an empty statusCount map,
// which then decodes as nil. Seeds live in testdata/fuzz/FuzzDecodeReport.
func FuzzDecodeReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReport(data)
		if err != nil {
			return
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		back, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted report rejected: %v", err)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatalf("re-decoded report does not encode: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the report:\n%s\n%s", enc, again)
		}
	})
}
