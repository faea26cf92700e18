// Package dist distributes an experiment sweep's simulation cells across
// worker processes. The coordinator side plugs into the experiment layer's
// cell cache as its RemoteFunc: every cell the scheduler would have
// simulated locally is instead shipped — full workload specification,
// configuration kind, tweaks and mode — to one of N workers over a small
// HTTP/JSON protocol, and the returned payload is bit-identical to a local
// computation because both sides run the same deterministic engine from
// the same spec. The coordinator keeps no queue: each cell is dispatched
// on the goroutine that asks for it, to the up worker with the fewest
// attempts running, so the experiment scheduler's Parallel bound is the
// only bound on cells in flight and concurrent cells spread across the
// fleet.
//
// The wire API shares internal/serve's rules through internal/wire:
// versioned request and response shapes, strict decoding (unknown fields,
// trailing data and foreign schema versions are rejected), and a
// structured error envelope on every non-2xx response whose Retryable
// field — surfaced coordinator-side as a Transient() error — feeds the
// experiment scheduler's existing retry/backoff machinery.
package dist

import (
	"encoding/json"
	"fmt"

	"ignite/internal/experiments"
	"ignite/internal/lukewarm"
	"ignite/internal/sim"
	"ignite/internal/wire"
	"ignite/internal/workload"
)

// SchemaVersion is the current version of the dist wire API. Bump on any
// incompatible change; both sides reject any other version.
const SchemaVersion = 1

// HTTP paths of the dist API.
const (
	PathTask   = "/v1/task"
	PathHealth = "/v1/health"
)

// TaskRequest asks a worker to compute one simulation cell. It carries the
// full workload specification rather than a name: the worker rebuilds the
// cell key from the spec and rejects the task if it disagrees with Key, so
// a version-skewed worker (different key schema, different spec fields)
// fails loudly instead of silently computing — and the coordinator then
// caching — the wrong cell.
type TaskRequest struct {
	SchemaVersion int `json:"schemaVersion"`
	// Key is the cell's canonical cache key as the coordinator computed it.
	Key string `json:"key"`
	// Workload is the full function specification (plain exported data;
	// the JSON round trip is exact, floats included, so the worker's
	// recomputed key matches byte for byte).
	Workload workload.Spec `json:"workload"`
	// Config is the front-end configuration kind.
	Config sim.Kind `json:"config"`
	// Tweaks adjusts the configuration. sim.Tweaks is shipped directly —
	// ints, bools and an optional policy pointer — rather than through
	// serve's string-y TweakSpec; both wires validate with
	// sim.Tweaks.Validate.
	Tweaks sim.Tweaks `json:"tweaks"`
	// Mode selects back-to-back or interleaved execution.
	Mode lukewarm.Mode `json:"mode"`
	// Checks enables the runtime invariant verifier on the worker.
	Checks bool `json:"checks,omitempty"`
	// MaxCycles arms the worker-side cycle-budget watchdog (0 = unlimited).
	MaxCycles uint64 `json:"maxCycles,omitempty"`
}

// CellSpec resolves the request into the experiment layer's exported cell
// identity.
func (r TaskRequest) CellSpec() experiments.CellSpec {
	return experiments.CellSpec{Workload: r.Workload, Config: r.Config, Tweaks: r.Tweaks, Mode: r.Mode}
}

// TaskResponse answers one computed cell. Its frame holds the experiment
// layer's CellPayload JSON under a CRC — the same wire.Frame the
// content-addressed store's records carry — so a payload damaged anywhere
// between the worker's encoder and the coordinator's decoder is detected,
// not cached.
type TaskResponse struct {
	SchemaVersion int    `json:"schemaVersion"`
	Key           string `json:"key"`
	Cached        bool   `json:"cached"`
	wire.Frame
}

// DecodePayload verifies the response's CRC and decodes the cell payload.
func (r TaskResponse) DecodePayload() (experiments.CellPayload, error) {
	var p experiments.CellPayload
	if !r.Valid() {
		return p, fmt.Errorf("dist: cell %q: payload CRC mismatch (damaged in transit)", r.Key)
	}
	if err := json.Unmarshal(r.Cell, &p); err != nil {
		return p, fmt.Errorf("dist: cell %q: %w", r.Key, err)
	}
	if p.Res == nil {
		return p, fmt.Errorf("dist: cell %q: payload has no result", r.Key)
	}
	return p, nil
}

// HealthResponse answers /v1/health.
type HealthResponse struct {
	SchemaVersion int    `json:"schemaVersion"`
	Status        string `json:"status"` // "ok" or "draining"
	InFlight      int    `json:"inFlight"`
	TasksDone     uint64 `json:"tasksDone"`
}

// ParseTaskRequest decodes and validates a task body. Unknown fields,
// trailing data, foreign schema versions and tweaks the engine cannot build
// fail loudly, same as serve's v1 parsing.
func ParseTaskRequest(body []byte) (TaskRequest, *wire.Envelope) {
	var req TaskRequest
	if err := wire.DecodeRequest(body, &req); err != nil {
		return req, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "malformed task: %v", err)
	}
	if req.SchemaVersion != SchemaVersion {
		return req, wire.Errorf(SchemaVersion, wire.CodeUnsupportedSchema,
			"task schema version %d, this worker speaks %d", req.SchemaVersion, SchemaVersion)
	}
	if req.Key == "" {
		return req, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "missing cell key")
	}
	if req.Workload.Name == "" {
		return req, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "missing workload specification")
	}
	if err := req.Tweaks.Validate(); err != nil {
		return req, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "tweaks: %v", err)
	}
	return req, nil
}

// WorkerError reports a failed attempt to run a task on a worker:
// connection failures, shed/shutdown envelopes, damaged payloads. Its
// Transient method feeds faults.IsTransient, so the experiment scheduler
// retries these with its usual capped backoff; permanent envelope errors
// (bad request, key mismatch) are returned bare instead and fail the cell.
type WorkerError struct {
	Worker string // worker address
	Err    error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("dist: worker %s: %v", e.Worker, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// Transient marks the error retryable (see faults.IsTransient).
func (e *WorkerError) Transient() bool { return true }
