package wire

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"
)

// TestEnvelopeMapping pins the one code table both wires answer with: each
// code's HTTP status, whether a retry can succeed, and the Retry-After hint
// on the two overload answers.
func TestEnvelopeMapping(t *testing.T) {
	cases := []struct {
		code      string
		status    int
		retryable bool
	}{
		{CodeBadRequest, 400, false},
		{CodeUnsupportedSchema, 400, false},
		{CodeKeyMismatch, 400, false},
		{CodeUnknownFunction, 404, false},
		{CodeUnknownConfig, 404, false},
		{CodeUnknownMode, 404, false},
		{CodeOverloaded, 429, true},
		{CodeShuttingDown, 503, true},
		{CodeDeadline, 504, true},
		{CodeInternal, 500, false},
	}
	for _, c := range cases {
		e := Errorf(7, c.code, "x %d", 1)
		if e.HTTPStatus() != c.status || e.Retryable != c.retryable {
			t.Errorf("%s: status %d retryable %v, want %d %v",
				c.code, e.HTTPStatus(), e.Retryable, c.status, c.retryable)
		}
		if e.SchemaVersion != 7 || e.Error() != c.code+": x 1" {
			t.Errorf("%s: envelope %+v, error %q", c.code, e, e.Error())
		}
		rec := httptest.NewRecorder()
		WriteError(rec, e)
		var back Envelope
		if rec.Code != c.status || json.Unmarshal(rec.Body.Bytes(), &back) != nil || back != *e {
			t.Errorf("%s: wrote %d %s", c.code, rec.Code, rec.Body)
		}
		want := ""
		if c.status == 429 || c.status == 503 {
			want = strconv.Itoa(RetryAfterSec)
		}
		if got := rec.Header().Get("Retry-After"); got != want {
			t.Errorf("%s: Retry-After = %q, want %q", c.code, got, want)
		}
	}
}

// TestFrame pins the CRC frame: it holds the bytes encoding/json writes for
// the payload, so a frame survives its own JSON round trip; a flipped byte
// fails Valid; and anything but one JSON value is refused.
func TestFrame(t *testing.T) {
	f, err := NewFrame([]byte(`{"s": "<b>", "n": [1, 2]}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"s":"\u003cb\u003e","n":[1,2]}`; string(f.Cell) != want {
		t.Fatalf("cell = %s, want %s", f.Cell, want)
	}
	data, err := json.Marshal(struct {
		Key string `json:"key"`
		Frame
	}{"k", f})
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Key string `json:"key"`
		Frame
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Valid() || back.CRC != f.CRC || string(back.Cell) != string(f.Cell) {
		t.Fatalf("round trip of %s: %+v", data, back)
	}

	back.Cell[2] ^= 1
	if back.Valid() {
		t.Error("a flipped byte in the cell passed Valid")
	}

	for _, bad := range []string{"", "not json", `{"a":`, `{"a":1} {"b":2}`, `{"a":1} x`} {
		if _, err := NewFrame([]byte(bad)); err == nil {
			t.Errorf("NewFrame(%q) accepted", bad)
		}
	}
}
