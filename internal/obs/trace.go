package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracer receives structured events from the simulation stack. The engine
// hot path emits InvocationStart/End behind a nil check, so the default
// (no tracer) costs nothing — no allocation, no virtual call.
//
// Implementations must be safe for concurrent use: under the cell scheduler
// one tracer observes events from many simulation goroutines at once.
type Tracer interface {
	// InvocationStart fires when the engine begins executing a trace.
	InvocationStart(InvocationStartEvent)
	// InvocationEnd fires when the invocation's last step commits.
	InvocationEnd(InvocationEndEvent)
	// ReplayStart fires when an armed replay mechanism begins streaming
	// metadata at invocation start.
	ReplayStart(ReplayStartEvent)
	// ReplayEnd fires when the replay stream drains.
	ReplayEnd(ReplayEndEvent)
	// CellDone fires when the experiment scheduler completes one
	// (workload, config) simulation cell.
	CellDone(CellDoneEvent)
	// CellRetried fires when a cell attempt failed with a transient error
	// and the scheduler is about to retry it after a backoff.
	CellRetried(CellRetriedEvent)
	// CellFailed fires when a cell is abandoned: every attempt failed, or
	// the run was canceled before the cell could start (skipped).
	CellFailed(CellFailedEvent)
}

// InvocationStartEvent marks the start of one simulated invocation.
type InvocationStartEvent struct {
	Seed uint64 `json:"seed"`
	Now  uint64 `json:"now"` // absolute engine cycle clock
}

// InvocationEndEvent summarizes one completed invocation.
type InvocationEndEvent struct {
	Seed   uint64  `json:"seed"`
	Now    uint64  `json:"now"`
	Instrs uint64  `json:"instrs"`
	Cycles float64 `json:"cycles"`
	CPI    float64 `json:"cpi"`
}

// ReplayStartEvent marks a replay mechanism starting to stream.
type ReplayStartEvent struct {
	Mechanism string `json:"mechanism"`
	Now       uint64 `json:"now"`
	Bytes     int    `json:"bytes"` // metadata bytes armed for replay
}

// ReplayEndEvent marks the replay stream draining.
type ReplayEndEvent struct {
	Mechanism string `json:"mechanism"`
	Now       uint64 `json:"now"`
	Restored  int    `json:"restored"` // records applied
}

// CellDoneEvent marks one (workload, config) cell completing inside an
// experiment matrix. Cached reports a cell served from the shared cell
// cache instead of simulated; Done/Total describe progress through that
// matrix.
type CellDoneEvent struct {
	Experiment string        `json:"experiment"`
	Workload   string        `json:"workload"`
	Config     string        `json:"config"`
	Cached     bool          `json:"cached"`
	Done       int           `json:"done"`
	Total      int           `json:"total"`
	Elapsed    time.Duration `json:"elapsedNs"`
}

// CellRetriedEvent marks one failed cell attempt about to be retried.
// Attempt is the attempt that just failed (1-based); Backoff is the delay
// before the next one.
type CellRetriedEvent struct {
	Experiment string        `json:"experiment"`
	Workload   string        `json:"workload"`
	Config     string        `json:"config"`
	Attempt    int           `json:"attempt"`
	Backoff    time.Duration `json:"backoffNs"`
	Err        string        `json:"error"`
}

// CellFailedEvent marks a cell abandoned by the scheduler. Status is
// "failed" (every attempt errored) or "skipped" (canceled before starting);
// Attempts counts the attempts actually made (0 for skipped cells).
type CellFailedEvent struct {
	Experiment string `json:"experiment"`
	Workload   string `json:"workload"`
	Config     string `json:"config"`
	Status     string `json:"status"`
	Attempts   int    `json:"attempts"`
	Err        string `json:"error,omitempty"`
}

// BaseTracer is a no-op Tracer intended for embedding, so partial
// implementations (a progress reporter that only cares about CellDone)
// stay small.
type BaseTracer struct{}

func (BaseTracer) InvocationStart(InvocationStartEvent) {}
func (BaseTracer) InvocationEnd(InvocationEndEvent)     {}
func (BaseTracer) ReplayStart(ReplayStartEvent)         {}
func (BaseTracer) ReplayEnd(ReplayEndEvent)             {}
func (BaseTracer) CellDone(CellDoneEvent)               {}
func (BaseTracer) CellRetried(CellRetriedEvent)         {}
func (BaseTracer) CellFailed(CellFailedEvent)           {}

var _ Tracer = BaseTracer{}

// MultiTracer fans every event out to each member tracer, in order.
type MultiTracer []Tracer

func (m MultiTracer) InvocationStart(e InvocationStartEvent) {
	for _, t := range m {
		t.InvocationStart(e)
	}
}
func (m MultiTracer) InvocationEnd(e InvocationEndEvent) {
	for _, t := range m {
		t.InvocationEnd(e)
	}
}
func (m MultiTracer) ReplayStart(e ReplayStartEvent) {
	for _, t := range m {
		t.ReplayStart(e)
	}
}
func (m MultiTracer) ReplayEnd(e ReplayEndEvent) {
	for _, t := range m {
		t.ReplayEnd(e)
	}
}
func (m MultiTracer) CellDone(e CellDoneEvent) {
	for _, t := range m {
		t.CellDone(e)
	}
}
func (m MultiTracer) CellRetried(e CellRetriedEvent) {
	for _, t := range m {
		t.CellRetried(e)
	}
}
func (m MultiTracer) CellFailed(e CellFailedEvent) {
	for _, t := range m {
		t.CellFailed(e)
	}
}

// Collector is a Tracer that records every event it sees — the test and
// inspection implementation.
type Collector struct {
	mu     sync.Mutex
	Events []CollectedEvent
}

// CollectedEvent tags a recorded event with its type name.
type CollectedEvent struct {
	Type  string
	Event any
}

func (c *Collector) add(typ string, e any) {
	c.mu.Lock()
	c.Events = append(c.Events, CollectedEvent{Type: typ, Event: e})
	c.mu.Unlock()
}

func (c *Collector) InvocationStart(e InvocationStartEvent) { c.add("invocation_start", e) }
func (c *Collector) InvocationEnd(e InvocationEndEvent)     { c.add("invocation_end", e) }
func (c *Collector) ReplayStart(e ReplayStartEvent)         { c.add("replay_start", e) }
func (c *Collector) ReplayEnd(e ReplayEndEvent)             { c.add("replay_end", e) }
func (c *Collector) CellDone(e CellDoneEvent)               { c.add("cell_done", e) }
func (c *Collector) CellRetried(e CellRetriedEvent)         { c.add("cell_retried", e) }
func (c *Collector) CellFailed(e CellFailedEvent)           { c.add("cell_failed", e) }

// Count returns how many events of the given type were collected
// (all events when typ is empty).
func (c *Collector) Count(typ string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if typ == "" {
		return len(c.Events)
	}
	n := 0
	for _, e := range c.Events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// WriterTracer streams every event as one JSON line (type-tagged) to an
// io.Writer — the machine-readable event log.
type WriterTracer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewWriterTracer wraps w in a line-oriented JSON event sink.
func NewWriterTracer(w io.Writer) *WriterTracer { return &WriterTracer{w: w} }

func (t *WriterTracer) emit(typ string, e any) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	t.mu.Lock()
	fmt.Fprintf(t.w, "{\"event\":%q,\"data\":%s}\n", typ, data)
	t.mu.Unlock()
}

func (t *WriterTracer) InvocationStart(e InvocationStartEvent) { t.emit("invocation_start", e) }
func (t *WriterTracer) InvocationEnd(e InvocationEndEvent)     { t.emit("invocation_end", e) }
func (t *WriterTracer) ReplayStart(e ReplayStartEvent)         { t.emit("replay_start", e) }
func (t *WriterTracer) ReplayEnd(e ReplayEndEvent)             { t.emit("replay_end", e) }
func (t *WriterTracer) CellDone(e CellDoneEvent)               { t.emit("cell_done", e) }
func (t *WriterTracer) CellRetried(e CellRetriedEvent)         { t.emit("cell_retried", e) }
func (t *WriterTracer) CellFailed(e CellFailedEvent)           { t.emit("cell_failed", e) }
