package experiments

import (
	"fmt"
	"time"

	"ignite/internal/faults"
)

// FailurePolicy selects how the cell scheduler reacts to a failing cell.
type FailurePolicy int

const (
	// FailFast cancels the run on the first cell failure: cells that have
	// not started yet are skipped and the run returns the joined errors.
	// This is the default and the historical behaviour.
	FailFast FailurePolicy = iota
	// ContinueOnError keeps scheduling: every healthy cell completes, the
	// run returns a Result with per-cell statuses, and failures surface
	// through Result.Failures (and the document manifest) instead of an
	// error.
	ContinueOnError
)

func (p FailurePolicy) String() string {
	if p == ContinueOnError {
		return "continue"
	}
	return "fail-fast"
}

// ParseFailurePolicy resolves the CLI spelling of a failure policy.
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch s {
	case "", "fail-fast", "failfast":
		return FailFast, nil
	case "continue", "continue-on-error":
		return ContinueOnError, nil
	}
	return FailFast, fmt.Errorf("experiments: unknown failure policy %q (want fail-fast or continue)", s)
}

// CellStatus is the scheduler's verdict on one submitted cell.
type CellStatus string

const (
	// StatusOK: the cell simulated cleanly on the first attempt.
	StatusOK CellStatus = "ok"
	// StatusRetried: the cell succeeded after at least one transient
	// failure. Cells are pure functions of their key, so a retried cell's
	// results are bit-identical to a clean run's.
	StatusRetried CellStatus = "retried"
	// StatusFailed: every attempt errored (or the error was not
	// retryable).
	StatusFailed CellStatus = "failed"
	// StatusSkipped: the run was canceled before the cell started.
	StatusSkipped CellStatus = "skipped"
)

// CellError is the structured failure of one (workload, config) cell:
// which cell, on which attempt it gave up, and why. It unwraps to the
// underlying cause so errors.Is/As and transient classification see
// through it.
type CellError struct {
	ID       ID
	Workload string
	Config   string
	Attempt  int
	Err      error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s/%s/%s failed (attempt %d): %v",
		e.ID, e.Workload, e.Config, e.Attempt, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// CellFailure is the exportable summary of a failed or skipped cell,
// carried on Result for CLIs to render and for the document manifest.
type CellFailure struct {
	Workload string
	Config   string
	Status   CellStatus
	Attempts int
	Err      string
}

// DefaultRetries is how many times the scheduler (unless Options.Retries
// overrides it) and the serving batcher retry a transient cell failure.
const DefaultRetries = 2

// RetryDelay returns the delay before retry #attempt (1-based): 5ms,
// doubling per attempt, capped at 2s.
func RetryDelay(attempt int) time.Duration {
	return faults.Backoff(5*time.Millisecond, 2*time.Second, attempt)
}
