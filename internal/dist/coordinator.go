package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/obs"
	"ignite/internal/wire"
)

const (
	// probeTimeout bounds one /v1/health probe. A worker that gives no
	// HTTP answer within it is treated as stalled (see probe).
	probeTimeout = 2 * time.Second
	// healthyEvery is how many prober ticks pass between probes of a
	// worker that is up; down workers are probed every tick.
	healthyEvery = 8
)

// errNoAnswer ends the attempts the prober abandons on a silent worker.
var errNoAnswer = errors.New("no answer to health probe (worker stalled or dead)")

// CoordinatorOptions configures a coordinator.
type CoordinatorOptions struct {
	// Addrs are the worker addresses (host:port). Required, non-empty.
	Addrs []string
	// Client is the HTTP client for task calls and health probes (default:
	// no client-side timeout — cells are seconds of CPU and the per-attempt
	// deadline is the scheduler's CellTimeout, carried by the request
	// context). Wrap its transport with faults.NewTransport to inject
	// network chaos.
	Client *http.Client
	// ProbeInterval is the health prober's tick (default 500ms). Down
	// workers are probed every tick and re-admitted on a healthy answer;
	// up workers are probed every 8th tick, so a silently dead or stalled
	// worker is found without sacrificing a task.
	ProbeInterval time.Duration
	// MaxDispatchRounds bounds how many fleet-wide dispatch rounds one
	// cell gets before a transient failure surfaces to the caller
	// (default 12; 1 = surface after the first round). Within a round a
	// cell fails over across every worker it has not tried; between rounds
	// Remote waits with capped backoff while the supervisor restarts and
	// the prober re-admits workers. Infrastructure failures are the dist
	// layer's to absorb: a surfaced retry would mark the cell "retried" in
	// the result document and break byte-identity with a fault-free run.
	MaxDispatchRounds int
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.MaxDispatchRounds <= 0 {
		o.MaxDispatchRounds = 12
	}
	return o
}

// workerState is the coordinator's view of one worker: one health bit and
// the attempts running on it, keyed by attempt context. running, guarded by
// Coordinator.mu, is the worker's load for pick, and the prober abandons
// its attempts when the worker stops answering.
type workerState struct {
	addr    string
	up      atomic.Bool
	running map[context.Context]context.CancelCauseFunc
}

// Coordinator ships cells to a worker fleet. It keeps no queue: each cell
// is dispatched on the goroutine that asks for it, so the experiment
// scheduler's Parallel bound is the only bound on cells in flight. A
// dispatch round calls the least busy up worker (pick); an attempt that
// fails with a *WorkerError marks its worker down and fails over to the
// next pick; a round that has tried every worker is re-dispatched after a
// capped backoff (Remote). A background prober re-admits down workers on
// /v1/health evidence and rescues attempts stuck on a worker that stopped
// answering.
type Coordinator struct {
	opts    CoordinatorOptions
	workers []*workerState
	client  *http.Client

	mu    sync.Mutex // guards every workerState.running
	stop  sync.Once
	stopc chan struct{}
	wg    sync.WaitGroup

	mTasks         obs.Counter
	mFailovers     obs.Counter
	mRedispatches  obs.Counter
	mFailures      obs.Counter
	mQuarantines   obs.Counter
	mProbes        obs.Counter
	mProbeFailures obs.Counter
	mReadmits      obs.Counter
}

// NewCoordinator starts a coordinator over the given workers and its
// health prober. Close releases the prober.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Addrs) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one worker address")
	}
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:   opts,
		client: opts.Client,
		stopc:  make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	for _, addr := range opts.Addrs {
		w := &workerState{addr: addr, running: make(map[context.Context]context.CancelCauseFunc)}
		w.up.Store(true)
		c.workers = append(c.workers, w)
	}
	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

// Stats returns the coordinator's dispatch totals (tasks completed,
// failovers).
func (c *Coordinator) Stats() (tasks, failovers uint64) {
	return c.mTasks.Value(), c.mFailovers.Value()
}

// HealthStats is the self-healing layer's counter snapshot.
type HealthStats struct {
	Failures      uint64 // failed worker attempts
	Quarantines   uint64 // workers marked down
	Probes        uint64 // health probes sent
	ProbeFailures uint64 // probes that failed
	Readmits      uint64 // down workers marked up again
	Redispatches  uint64 // dispatch rounds after a cell's first
}

// Health returns the self-healing counters.
func (c *Coordinator) Health() HealthStats {
	return HealthStats{
		Failures:      c.mFailures.Value(),
		Quarantines:   c.mQuarantines.Value(),
		Probes:        c.mProbes.Value(),
		ProbeFailures: c.mProbeFailures.Value(),
		Readmits:      c.mReadmits.Value(),
		Redispatches:  c.mRedispatches.Value(),
	}
}

// WorkersHealthy reports whether every worker is up — the chaos harness
// polls it to assert a restarted worker was re-admitted.
func (c *Coordinator) WorkersHealthy() bool {
	for _, w := range c.workers {
		if !w.up.Load() {
			return false
		}
	}
	return true
}

// Close stops the prober. Call it once the sweep's scheduler has drained:
// a cell still dispatching finishes its round without the stalled-worker
// rescue and is not re-dispatched.
func (c *Coordinator) Close() {
	c.stop.Do(func() { close(c.stopc) })
	c.wg.Wait()
}

// mark records a health verdict on w. A change of state counts as a
// quarantine or a readmission.
func (c *Coordinator) mark(w *workerState, up bool) {
	if !w.up.CompareAndSwap(!up, up) {
		return
	}
	if up {
		c.mReadmits.Inc()
	} else {
		c.mQuarantines.Inc()
	}
}

// Remote returns the RemoteFunc to install on the sweep's cell cache
// (experiments.CellCache.SetRemote): each call ships one cell to the fleet
// on the caller's goroutine and returns once it is computed, fails
// permanently, or ctx ends. A round that fails transiently on every worker
// (a mid-heal window: the supervisor is restarting a victim, the prober
// has not re-admitted it yet) is re-dispatched after a capped backoff, up
// to MaxDispatchRounds — the dist layer absorbs infrastructure weather so
// it never surfaces as a cell retry in the experiment's result document.
func (c *Coordinator) Remote() experiments.RemoteFunc {
	return func(ctx context.Context, key string, cs experiments.CellSpec, env experiments.CellEnv) (experiments.CellPayload, error) {
		body, err := json.Marshal(TaskRequest{
			SchemaVersion: SchemaVersion,
			Key:           key,
			Workload:      cs.Workload,
			Config:        cs.Config,
			Tweaks:        cs.Tweaks,
			Mode:          cs.Mode,
			Checks:        env.Checks,
			MaxCycles:     env.MaxCycles,
		})
		if err != nil {
			return experiments.CellPayload{}, fmt.Errorf("dist: encode task: %w", err)
		}
		for round := 1; ; round++ {
			if round > 1 {
				c.mRedispatches.Inc()
			}
			p, err := c.dispatch(ctx, key, body)
			if err == nil || round >= c.opts.MaxDispatchRounds ||
				!faults.IsTransient(err) || ctx.Err() != nil {
				return p, err
			}
			select {
			case <-time.After(faults.Backoff(50*time.Millisecond, 2*time.Second, round)):
			case <-ctx.Done():
				return experiments.CellPayload{}, ctx.Err()
			case <-c.stopc:
				return experiments.CellPayload{}, fmt.Errorf("dist: coordinator closed")
			}
		}
	}
}

// dispatch runs one round of the cell key, whose encoded request is body:
// it calls the worker pick claims and classifies the outcome. The cell's
// own context ending blames nobody; a permanent error fails the cell but
// not the worker, which answered coherently; only a *WorkerError — which
// includes an attempt the prober abandoned on a silent worker — marks the
// worker down and fails the cell over to the next pick. The round ends
// with the last worker error once every worker has been tried.
func (c *Coordinator) dispatch(ctx context.Context, key string, body []byte) (experiments.CellPayload, error) {
	tried := make([]bool, len(c.workers))
	var err error
	for {
		if ctx.Err() != nil {
			return experiments.CellPayload{}, ctx.Err()
		}
		actx, abandon := context.WithCancelCause(ctx)
		i := c.pick(actx, abandon, tried)
		if i < 0 {
			abandon(nil)
			return experiments.CellPayload{}, err
		}
		if err != nil {
			c.mFailovers.Inc()
		}
		w := c.workers[i]
		var p experiments.CellPayload
		p, err = c.call(actx, w, key, body)
		c.mu.Lock()
		delete(w.running, actx)
		c.mu.Unlock()
		abandon(nil)

		var we *WorkerError
		switch {
		case err == nil:
			c.mark(w, true)
			c.mTasks.Inc()
			return p, nil
		case ctx.Err() != nil:
			return experiments.CellPayload{}, ctx.Err()
		case !errors.As(err, &we):
			// Permanent protocol error (bad request, key mismatch): the cell
			// is wrong, not the worker.
			c.mark(w, true)
			return experiments.CellPayload{}, err
		}
		c.mFailures.Inc()
		c.mark(w, false)
		tried[i] = true
	}
}

// pick claims the worker a round calls next: the untried up worker with
// the fewest attempts running or, when no untried worker is up, the least
// busy untried down one — the last resort, so quarantine can never strand
// a cell, even with the whole fleet down. It reads the loads and registers
// the attempt (actx, which abandon cancels) under one lock, so concurrent
// cells see each other's claims and spread across the fleet. Returns -1
// once every worker has been tried.
func (c *Coordinator) pick(actx context.Context, abandon context.CancelCauseFunc, tried []bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	best, bestUp := -1, false
	for i, w := range c.workers {
		if tried[i] {
			continue
		}
		up := w.up.Load()
		if best < 0 || (up && !bestUp) || (up == bestUp && len(w.running) < len(c.workers[best].running)) {
			best, bestUp = i, up
		}
	}
	if best >= 0 {
		c.workers[best].running[actx] = abandon
	}
	return best
}

// probeLoop is the background prober: down workers are probed every tick
// and re-admitted on a healthy answer; up workers are probed every
// healthyEvery ticks (staggered), so a silently dead or stalled worker is
// found without sacrificing a task.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.ProbeInterval)
	defer ticker.Stop()
	for tick := 1; ; tick++ {
		select {
		case <-c.stopc:
			return
		case <-ticker.C:
		}
		for i, w := range c.workers {
			select {
			case <-c.stopc: // a probe can take probeTimeout; do not delay Close
				return
			default:
			}
			if !w.up.Load() || (tick+i)%healthyEvery == 0 {
				c.probe(w)
			}
		}
	}
}

// probe GETs /v1/health once and marks the worker up only on HTTP 200 with
// status "ok". A worker answering "draining" (or anything else) is only
// marked down, so its in-flight tasks finish. A worker that gives no HTTP
// answer at all is dead or stalled: its in-flight attempts are abandoned,
// so they fail over instead of waiting on it forever.
func (c *Coordinator) probe(w *workerState) {
	c.mProbes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+w.addr+PathHealth, nil)
	var resp *http.Response
	if err == nil {
		resp, err = c.client.Do(req)
	}
	if err != nil {
		c.mProbeFailures.Inc()
		c.mark(w, false)
		c.mu.Lock()
		for _, abandon := range w.running {
			abandon(errNoAnswer)
		}
		c.mu.Unlock()
		return
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	var h HealthResponse
	healthy := err == nil && resp.StatusCode == http.StatusOK &&
		json.Unmarshal(data, &h) == nil && h.Status == "ok"
	if !healthy {
		c.mProbeFailures.Inc()
	}
	c.mark(w, healthy)
}

// call runs one attempt of cell key, whose encoded request is body, on one
// worker under the attempt's context.
// Connection failures — including an attempt whose context ended —,
// retryable envelopes and damaged payloads come back as transient
// *WorkerError; permanent envelopes (the request itself is wrong) come back
// bare. The caller decides whether a context ending was the task's own.
func (c *Coordinator) call(ctx context.Context, w *workerState, key string, body []byte) (experiments.CellPayload, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+w.addr+PathTask, bytes.NewReader(body))
	if err != nil {
		return experiments.CellPayload{}, fmt.Errorf("dist: build request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return experiments.CellPayload{}, &WorkerError{Worker: w.addr, Err: withCause(ctx, err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return experiments.CellPayload{}, &WorkerError{Worker: w.addr, Err: withCause(ctx, err)}
	}
	if resp.StatusCode != http.StatusOK {
		var env wire.Envelope
		if jerr := json.Unmarshal(data, &env); jerr == nil && env.Code != "" {
			if env.Retryable {
				return experiments.CellPayload{}, &WorkerError{Worker: w.addr, Err: &env}
			}
			return experiments.CellPayload{}, &env
		}
		return experiments.CellPayload{}, &WorkerError{
			Worker: w.addr, Err: fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(data)),
		}
	}
	var tr TaskResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		return experiments.CellPayload{}, &WorkerError{Worker: w.addr, Err: fmt.Errorf("decode response: %w", err)}
	}
	if tr.SchemaVersion != SchemaVersion {
		return experiments.CellPayload{}, fmt.Errorf("dist: worker %s answered schema %d, this coordinator speaks %d",
			w.addr, tr.SchemaVersion, SchemaVersion)
	}
	if tr.Key != key {
		return experiments.CellPayload{}, fmt.Errorf("dist: worker %s answered key %q for task %q", w.addr, tr.Key, key)
	}
	p, err := tr.DecodePayload()
	if err != nil {
		// A CRC mismatch is transit damage, not a wrong cell: retryable.
		return experiments.CellPayload{}, &WorkerError{Worker: w.addr, Err: err}
	}
	return p, nil
}

// withCause names why an attempt's context ended (the prober's errNoAnswer)
// in place of the transport's bare "context canceled".
func withCause(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return err
}
