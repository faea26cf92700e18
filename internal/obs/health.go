package obs

import "sync/atomic"

// RunHealth aggregates the fault-tolerance counters of one experiment run:
// how many cell attempts panicked, were retried after a transient failure,
// overran their deadline, failed for good, or were skipped by cancellation.
// Counters are atomic — the scheduler increments them from many worker
// goroutines — and the zero value is ready to use.
type RunHealth struct {
	Panics    atomic.Int64
	Retries   atomic.Int64
	Deadlines atomic.Int64
	Failed    atomic.Int64
	Skipped   atomic.Int64
}
