// Package wire owns the rules the serving wire, the dist wire and the cell
// store share at their trust boundaries: the strict decode of a request
// body, the error envelope with its HTTP status, and the CRC frame that
// guards a cell's JSON payload. It imports only the standard library, so
// the sweep worker does not depend on the serving daemon and the store
// keeps no checksum code of its own.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
)

// Error codes of the v1 wire APIs.
const (
	CodeBadRequest        = "bad-request"
	CodeUnsupportedSchema = "unsupported-schema"
	CodeKeyMismatch       = "key-mismatch"
	CodeUnknownFunction   = "unknown-function"
	CodeUnknownConfig     = "unknown-config"
	CodeUnknownMode       = "unknown-mode"
	CodeOverloaded        = "overloaded"
	CodeShuttingDown      = "shutting-down"
	CodeDeadline          = "deadline"
	CodeInternal          = "internal"
)

// Envelope is the structured error answer of every non-2xx response.
// Retryable tells the client whether backing off and retrying, on this
// server or another, can succeed (shed load, shutdown, a deadline) or the
// request itself is wrong.
type Envelope struct {
	SchemaVersion int    `json:"schemaVersion"`
	Code          string `json:"code"`
	Message       string `json:"message"`
	Retryable     bool   `json:"retryable"`
}

// Errorf builds an envelope stamped with the schema version of the wire it
// answers on.
func Errorf(schemaVersion int, code, format string, args ...any) *Envelope {
	return &Envelope{
		SchemaVersion: schemaVersion,
		Code:          code,
		Message:       fmt.Sprintf(format, args...),
		Retryable:     code == CodeOverloaded || code == CodeShuttingDown || code == CodeDeadline,
	}
}

// Error implements error so an envelope can travel through error returns.
func (e *Envelope) Error() string { return e.Code + ": " + e.Message }

// HTTPStatus maps the envelope's code onto its HTTP status.
func (e *Envelope) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest, CodeUnsupportedSchema, CodeKeyMismatch:
		return http.StatusBadRequest
	case CodeUnknownFunction, CodeUnknownConfig, CodeUnknownMode:
		return http.StatusNotFound
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeShuttingDown:
		return http.StatusServiceUnavailable
	case CodeDeadline:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// RetryAfterSec is the backoff hint stamped on shed (429) and
// shutting-down (503) answers as a Retry-After header. One second spans a
// cold cell simulation at serving scale, so a client that honors it usually
// finds the cell warm on its retry instead of re-joining the overload.
const RetryAfterSec = 1

// WriteError answers with env under its HTTP status.
func WriteError(w http.ResponseWriter, env *Envelope) {
	status := env.HTTPStatus()
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSec))
	}
	WriteJSON(w, status, env)
}

// WriteJSON answers with status and the JSON encoding of v. A
// json.RawMessage is already encoded and is written as it is.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	enc, ok := v.(json.RawMessage)
	if !ok {
		var err error
		if enc, err = json.Marshal(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(enc)
}

// DecodeRequest decodes a request body into v strictly: an unknown field
// fails, and so does anything but JSON whitespace after the one JSON value,
// so a typo'd field or a second document never passes for a valid request.
func DecodeRequest(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	for _, c := range body[dec.InputOffset():] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return fmt.Errorf("data after the JSON value at offset %d", dec.InputOffset())
		}
	}
	return nil
}

// Frame guards a cell's JSON payload with the IEEE CRC-32 of its bytes. The
// dist wire's task response and the store's record embed it as their last
// field, which adds "crc" and "cell" to their JSON.
type Frame struct {
	CRC  uint32          `json:"crc"`
	Cell json.RawMessage `json:"cell"`
}

// NewFrame frames payload, which must be exactly one JSON value. The cell
// holds the bytes encoding/json writes for a json.RawMessage (compacted and
// HTML-escaped), so the CRC covers exactly what a reader decodes.
func NewFrame(payload []byte) (Frame, error) {
	if len(payload) == 0 {
		// A nil RawMessage would marshal as null.
		return Frame{}, errors.New("payload is not one JSON value: empty")
	}
	cell, err := json.Marshal(json.RawMessage(payload))
	if err != nil {
		return Frame{}, fmt.Errorf("payload is not one JSON value: %w", err)
	}
	return Frame{CRC: crc32.ChecksumIEEE(cell), Cell: cell}, nil
}

// Valid reports whether the cell still matches its CRC.
func (f Frame) Valid() bool { return crc32.ChecksumIEEE(f.Cell) == f.CRC }
