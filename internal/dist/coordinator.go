package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
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
	// Slots bounds concurrent in-flight tasks per worker (default 4). The
	// experiment scheduler above already bounds total in-flight cells at
	// Options.Parallel; slots shape how that budget spreads across the
	// fleet.
	Slots int
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
	// task fails over across every up worker; between rounds Remote waits
	// with capped backoff while the supervisor restarts and the prober
	// re-admits workers. Infrastructure failures are the dist layer's to
	// absorb: a surfaced retry would mark the cell "retried" in the result
	// document and break byte-identity with a fault-free run.
	MaxDispatchRounds int
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Slots <= 0 {
		o.Slots = 4
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.MaxDispatchRounds <= 0 {
		o.MaxDispatchRounds = 12
	}
	return o
}

// task is one queued cell: the wire request plus the channel its waiting
// RemoteFunc call blocks on. A task is always in exactly one place — one
// worker's queue or the runner attempting it — so it has at most one
// attempt in flight, and its holder completes it exactly once.
type task struct {
	ctx  context.Context
	req  TaskRequest
	done chan taskResult // buffered: complete never blocks
	// tried marks workers whose attempt failed, so each worker attempts a
	// task at most once per dispatch round — a dead worker's runners
	// cannot burn a task's failover budget by re-stealing it. Guarded by
	// Coordinator.mu.
	tried []bool
}

type taskResult struct {
	payload experiments.CellPayload
	err     error
}

func (t *task) complete(p experiments.CellPayload, err error) {
	t.done <- taskResult{payload: p, err: err}
}

// workerState is the coordinator's view of one worker: one health bit and
// the attempts running on it, which the prober abandons when the worker
// stops answering.
type workerState struct {
	addr  string
	up    atomic.Bool
	tasks obs.Counter

	mu      sync.Mutex
	running map[*task]context.CancelCauseFunc
}

// Coordinator shards cells across a worker fleet. Each worker owns a FIFO
// queue; a cell's home queue is its key hash modulo fleet size, so a rerun
// of the same sweep lands each cell on the same worker and that worker's
// in-process cache serves repeats. Runner goroutines (Slots per worker)
// drain their own queue first and steal from the longest other queue when
// idle — a straggler workload queues behind nothing. A failed attempt
// marks its worker down and fails over to an untried up worker; a round
// that has no such worker left is re-dispatched after a capped backoff
// (Remote). A background prober re-admits down workers on /v1/health
// evidence and rescues attempts stuck on a worker that stopped answering.
type Coordinator struct {
	opts    CoordinatorOptions
	workers []*workerState
	client  *http.Client

	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]*task
	closed bool
	wg     sync.WaitGroup
	stopc  chan struct{}

	mTasks         obs.Counter
	mSteals        obs.Counter
	mFailovers     obs.Counter
	mRedispatches  obs.Counter
	mFailures      obs.Counter
	mQuarantines   obs.Counter
	mProbes        obs.Counter
	mProbeFailures obs.Counter
	mReadmits      obs.Counter
}

// NewCoordinator starts a coordinator over the given workers, its runner
// goroutines, and the health prober. Close releases them.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Addrs) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one worker address")
	}
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:   opts,
		client: opts.Client,
		queues: make([][]*task, len(opts.Addrs)),
		stopc:  make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	c.cond = sync.NewCond(&c.mu)
	for _, addr := range opts.Addrs {
		w := &workerState{addr: addr, running: make(map[*task]context.CancelCauseFunc)}
		w.up.Store(true)
		c.workers = append(c.workers, w)
	}
	for i := range c.workers {
		for s := 0; s < opts.Slots; s++ {
			c.wg.Add(1)
			go c.runner(i)
		}
	}
	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

// RegisterMetrics exports the coordinator's counters and per-worker health
// gauges on reg. dist.worker_health is 1 while the worker is up, 0 while
// it is quarantined.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry) {
	l := obs.L("component", "dist")
	reg.CounterFunc("dist.tasks", l, c.mTasks.Value)
	reg.CounterFunc("dist.steals", l, c.mSteals.Value)
	reg.CounterFunc("dist.failovers", l, c.mFailovers.Value)
	reg.CounterFunc("dist.redispatches", l, c.mRedispatches.Value)
	reg.CounterFunc("dist.worker_failures", l, c.mFailures.Value)
	reg.CounterFunc("dist.worker_quarantines", l, c.mQuarantines.Value)
	reg.CounterFunc("dist.probes", l, c.mProbes.Value)
	reg.CounterFunc("dist.probe_failures", l, c.mProbeFailures.Value)
	reg.CounterFunc("dist.worker_readmits", l, c.mReadmits.Value)
	for _, w := range c.workers {
		wl := obs.L("component", "dist", "worker", w.addr)
		reg.GaugeFunc("dist.worker_health", wl, func() float64 {
			if w.up.Load() {
				return 1
			}
			return 0
		})
		reg.CounterFunc("dist.worker_tasks", wl, w.tasks.Value)
	}
}

// Stats returns the coordinator's dispatch totals (tasks completed, queue
// steals, failovers).
func (c *Coordinator) Stats() (tasks, steals, failovers uint64) {
	return c.mTasks.Value(), c.mSteals.Value(), c.mFailovers.Value()
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

// Close stops the runners and the prober. Queued tasks fail with a closed
// error; callers should Close only after the sweep's scheduler has drained.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stopc)
	var orphans []*task
	for i, q := range c.queues {
		orphans = append(orphans, q...)
		c.queues[i] = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, t := range orphans {
		t.complete(experiments.CellPayload{}, fmt.Errorf("dist: coordinator closed"))
	}
	c.wg.Wait()
}

// mark records a health verdict on w. A change of state counts as a
// quarantine or a readmission and wakes idle runners, which re-evaluate
// what they may run; taking the lock around Broadcast closes the
// check-then-wait race with next.
func (c *Coordinator) mark(w *workerState, up bool) {
	if !w.up.CompareAndSwap(!up, up) {
		return
	}
	if up {
		c.mReadmits.Inc()
	} else {
		c.mQuarantines.Inc()
	}
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// home shards a cell key onto a worker index.
func (c *Coordinator) home(key string) int {
	h := fnv.New32a()
	io.WriteString(h, key)
	return int(h.Sum32()) % len(c.workers)
}

// Remote returns the RemoteFunc to install on the sweep's cell cache
// (experiments.CellCache.SetRemote): each call ships one cell to the fleet
// and blocks until it is computed, fails permanently, or ctx ends. A round
// that fails transiently on every up worker (a mid-heal window: the
// supervisor is restarting a victim, the prober has not re-admitted it yet)
// is re-dispatched after a capped backoff, up to MaxDispatchRounds — the
// dist layer absorbs infrastructure weather so it never surfaces as a cell
// retry in the experiment's result document.
func (c *Coordinator) Remote() experiments.RemoteFunc {
	return func(ctx context.Context, key string, cs experiments.CellSpec, env experiments.CellEnv) (experiments.CellPayload, error) {
		req := TaskRequest{
			SchemaVersion: SchemaVersion,
			Key:           key,
			Workload:      cs.Workload,
			Config:        cs.Config,
			Tweaks:        cs.Tweaks,
			Mode:          cs.Mode,
			Checks:        env.Checks,
			MaxCycles:     env.MaxCycles,
		}
		for round := 1; ; round++ {
			if round > 1 {
				c.mRedispatches.Inc()
			}
			t := &task{
				ctx:   ctx,
				req:   req,
				tried: make([]bool, len(c.workers)),
				done:  make(chan taskResult, 1),
			}
			if err := c.enqueue(t, c.home(req.Key)); err != nil {
				return experiments.CellPayload{}, err
			}
			var r taskResult
			select {
			case r = <-t.done:
			case <-ctx.Done():
				// A runner may still execute the task; its complete lands
				// in the buffered channel and is garbage collected with it.
				return experiments.CellPayload{}, ctx.Err()
			}
			if r.err == nil || round >= c.opts.MaxDispatchRounds ||
				!faults.IsTransient(r.err) || ctx.Err() != nil {
				return r.payload, r.err
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

func (c *Coordinator) enqueue(t *task, worker int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("dist: coordinator closed")
	}
	c.queues[worker] = append(c.queues[worker], t)
	// Broadcast, not Signal: the task may be runnable only by workers that
	// have not tried it yet, and a single wakeup could land on one that has.
	c.cond.Broadcast()
	return nil
}

// next blocks until worker i may run a task. An up worker serves the head
// of its own queue first, then steals the tail of the longest other queue.
// A down worker serves only last-resort tasks — ones no up untried worker
// could run — so quarantine can never strand a task that has nowhere else
// to go. Returns nil when the coordinator closes.
func (c *Coordinator) next(i int) (t *task, stolen bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, false
		}
		if c.workers[i].up.Load() {
			if t := takeFrom(&c.queues[i], i, false); t != nil {
				return t, false
			}
			victim, best := -1, 0
			for j, q := range c.queues {
				if j != i && len(q) > best {
					victim, best = j, len(q)
				}
			}
			if victim >= 0 {
				if t := takeFrom(&c.queues[victim], i, true); t != nil {
					return t, true
				}
				// The longest queue held nothing runnable by i (failover
				// leftovers); scan the rest before sleeping.
				for j := range c.queues {
					if j == i || j == victim {
						continue
					}
					if t := takeFrom(&c.queues[j], i, true); t != nil {
						return t, true
					}
				}
			}
		} else if t := c.lastResortLocked(i); t != nil {
			return t, false
		}
		c.cond.Wait()
	}
}

// takeFrom removes and returns the first task in q that worker i has not
// tried — scanning from the head for i's own queue, from the tail (the
// coldest task, leaving the victim its head) when stealing. Nil if none
// qualifies. c.mu must be held.
func takeFrom(q *[]*task, i int, fromTail bool) *task {
	s := *q
	for n := range s {
		idx := n
		if fromTail {
			idx = len(s) - 1 - n
		}
		if !s[idx].tried[i] {
			t := s[idx]
			*q = append(s[:idx:idx], s[idx+1:]...)
			return t
		}
	}
	return nil
}

// lastResortLocked finds a queued task that down worker i may run: one
// that no up worker could still attempt. c.mu must be held.
func (c *Coordinator) lastResortLocked(i int) *task {
	for j, q := range c.queues {
		for idx, t := range q {
			if !t.tried[i] && c.untriedUpLocked(t, i) < 0 {
				c.queues[j] = append(q[:idx:idx], q[idx+1:]...)
				return t
			}
		}
	}
	return nil
}

// untriedUpLocked returns an up worker other than skip that has not tried
// t, or -1 when there is none. c.mu must be held.
func (c *Coordinator) untriedUpLocked(t *task, skip int) int {
	for j, w := range c.workers {
		if j != skip && !t.tried[j] && w.up.Load() {
			return j
		}
	}
	return -1
}

func (c *Coordinator) runner(i int) {
	defer c.wg.Done()
	for {
		t, stolen := c.next(i)
		if t == nil {
			return
		}
		if stolen {
			c.mSteals.Inc()
		}
		c.attempt(t, i)
	}
}

// attempt runs one task attempt on worker i and classifies the outcome.
// Task-owned endings (the task's own context canceled or expired) blame
// nobody and burn no failover slot; a permanent error fails the cell but
// not the worker, which answered coherently; only a *WorkerError — which
// includes an attempt the prober abandoned on a silent worker — marks the
// worker down and fails the task over.
func (c *Coordinator) attempt(t *task, i int) {
	w := c.workers[i]
	if err := t.ctx.Err(); err != nil {
		t.complete(experiments.CellPayload{}, err)
		return
	}
	actx, cancel := context.WithCancelCause(t.ctx)
	w.mu.Lock()
	w.running[t] = cancel
	w.mu.Unlock()
	payload, err := c.call(actx, t, w)
	w.mu.Lock()
	delete(w.running, t)
	w.mu.Unlock()
	cancel(nil)

	var we *WorkerError
	switch {
	case err == nil:
		c.mark(w, true)
		w.tasks.Inc()
		c.mTasks.Inc()
		t.complete(payload, nil)
	case t.ctx.Err() != nil:
		t.complete(experiments.CellPayload{}, t.ctx.Err())
	case !errors.As(err, &we):
		// Permanent protocol error (bad request, key mismatch): the cell
		// is wrong, not the worker.
		c.mark(w, true)
		t.complete(experiments.CellPayload{}, err)
	default:
		c.mFailures.Inc()
		c.mark(w, false)
		c.failover(t, i, err)
	}
}

// failover hands a worker-failed task to an untried up worker; when none
// exists the transient error ends the round, and Remote decides whether
// the fleet deserves another.
func (c *Coordinator) failover(t *task, i int, err error) {
	c.mu.Lock()
	t.tried[i] = true
	next := c.untriedUpLocked(t, i)
	c.mu.Unlock()
	if next >= 0 && c.enqueue(t, next) == nil {
		c.mFailovers.Inc()
		return
	}
	t.complete(experiments.CellPayload{}, err)
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
		w.mu.Lock()
		for _, abandon := range w.running {
			abandon(errNoAnswer)
		}
		w.mu.Unlock()
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

// call runs one task attempt on one worker under the attempt's context.
// Connection failures — including an attempt whose context ended —,
// retryable envelopes and damaged payloads come back as transient
// *WorkerError; permanent envelopes (the request itself is wrong) come back
// bare. The caller decides whether a context ending was the task's own.
func (c *Coordinator) call(ctx context.Context, t *task, w *workerState) (experiments.CellPayload, error) {
	body, err := json.Marshal(t.req)
	if err != nil {
		return experiments.CellPayload{}, fmt.Errorf("dist: encode task: %w", err)
	}
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
	if tr.Key != t.req.Key {
		return experiments.CellPayload{}, fmt.Errorf("dist: worker %s answered key %q for task %q", w.addr, tr.Key, t.req.Key)
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
