package serve

import (
	"context"
	"runtime/debug"
	"sync"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/obs"
)

// Batcher defaults; overridable through Config.
const (
	defaultMaxBatch  = 64
	defaultMaxWait   = 2 * time.Millisecond
	defaultQueueSize = 1024
	defaultWorkers   = 2
)

// batchRequest is one caller waiting for a cell.
type batchRequest struct {
	spec experiments.CellSpec
	key  string
	// done receives exactly one batchResponse. It is buffered so a worker
	// can deliver without blocking even if the caller gave up (deadline).
	done chan batchResponse
}

// batchResponse is the outcome delivered to every waiter of a batch.
type batchResponse struct {
	cell      *experiments.CellPayload
	cached    bool
	batchSize int
	err       error
}

// pendingBatch collects waiters for one cell key between flushes.
type pendingBatch struct {
	spec    experiments.CellSpec
	waiters []*batchRequest
}

// Batcher coalesces concurrent invocation requests for the same simulation
// cell onto one engine run. Requests enter a bounded admission queue; a
// dispatcher goroutine groups them by cell key and flushes a group when it
// reaches maxBatch or when the oldest pending request has waited maxWait —
// so a Poisson burst of N same-function requests costs one warm cell and one
// batched invocation train instead of N independent setups. Flushed batches
// compute on a bounded worker pool through the experiment layer's
// single-flight CellCache, which makes served results bit-identical to the
// batch pipeline's by construction.
//
// The cache holds a function's program only while a batch of that function
// is in flight: when its last flushed batch ends, the batcher releases the
// program and its traces (CellCache.Release); the cells stay.
//
// Submit-vs-Close is made safe with an RWMutex around the admission send:
// Submit holds the read lock while sending on the queue, Close takes the
// write lock to flip closed before closing the channel, so a drain never
// races a send.
type Batcher struct {
	cache  *experiments.CellCache
	env    experiments.CellEnv
	faults *faults.Plan

	in       chan *batchRequest
	maxBatch int
	maxWait  time.Duration
	workers  chan struct{}

	mu     sync.RWMutex
	closed bool

	computing sync.WaitGroup
	drained   chan struct{}

	inflightMu sync.Mutex
	inflight   map[string]int // flushed, unanswered batches per function name

	// metrics (registered by newBatcher into the server's registry)
	mBatches   *obs.Counter
	mBatched   *obs.Counter
	mCacheHits *obs.Counter
	mRetries   *obs.Counter
	mFailures  *obs.Counter
	mBatchSize *obs.Distribution
}

// BatcherConfig shapes one Batcher.
type BatcherConfig struct {
	Cache    *experiments.CellCache
	Env      experiments.CellEnv
	Faults   *faults.Plan // nil = no injection
	MaxBatch int
	MaxWait  time.Duration
	Queue    int // admission queue capacity
	Workers  int // concurrent cell computations
}

// NewBatcher starts a batcher and registers its metric family into reg.
func NewBatcher(cfg BatcherConfig, reg *obs.Registry) *Batcher {
	if cfg.Cache == nil {
		cfg.Cache = experiments.NewCellCache()
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = defaultMaxWait
	}
	if cfg.Queue <= 0 {
		cfg.Queue = defaultQueueSize
	}
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers
	}
	b := &Batcher{
		cache:    cfg.Cache,
		env:      cfg.Env,
		faults:   cfg.Faults,
		in:       make(chan *batchRequest, cfg.Queue),
		maxBatch: cfg.MaxBatch,
		maxWait:  cfg.MaxWait,
		workers:  make(chan struct{}, cfg.Workers),
		drained:  make(chan struct{}),
		inflight: make(map[string]int),
	}
	if reg != nil {
		l := obs.L("component", "serve")
		b.mBatches = reg.Counter("serve.batches", l)
		b.mBatched = reg.Counter("serve.batched_requests", l)
		b.mCacheHits = reg.Counter("serve.cell_cache_hits", l)
		b.mRetries = reg.Counter("serve.cell_retries", l)
		b.mFailures = reg.Counter("serve.cell_failures", l)
		b.mBatchSize = reg.Distribution("serve.batch_size", l)
		// len() on a buffered channel is an atomic read — safe for the
		// read-through contract documented on GaugeFunc.
		reg.GaugeFunc("serve.queue_depth", l, func() float64 { return float64(len(b.in)) })
	} else {
		b.mBatches = &obs.Counter{}
		b.mBatched = &obs.Counter{}
		b.mCacheHits = &obs.Counter{}
		b.mRetries = &obs.Counter{}
		b.mFailures = &obs.Counter{}
		b.mBatchSize = &obs.Distribution{}
	}
	go b.dispatch()
	return b
}

// Submit enqueues one request and blocks until its batch computes, the
// context expires, or the batcher is shut down. On success it returns the
// served cell, whether the cell came from the cache, and how many requests
// shared this computation. Failures come back as *ErrorEnvelope: overloaded
// when the admission queue is full, shutting-down after Close, deadline on
// context expiry (the underlying computation still completes and warms the
// cache for a retry), internal for simulation errors.
func (b *Batcher) Submit(ctx context.Context, spec experiments.CellSpec) (*experiments.CellPayload, bool, int, *ErrorEnvelope) {
	req := &batchRequest{spec: spec, key: spec.Key(), done: make(chan batchResponse, 1)}

	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, false, 0, envelope(CodeShuttingDown, "server is draining")
	}
	select {
	case b.in <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		return nil, false, 0, envelope(CodeOverloaded, "admission queue full (%d pending)", cap(b.in))
	}

	select {
	case resp := <-req.done:
		if resp.err != nil {
			if env, ok := resp.err.(*ErrorEnvelope); ok {
				return nil, false, 0, env
			}
			return nil, false, 0, envelope(CodeInternal, "%v", resp.err)
		}
		return resp.cell, resp.cached, resp.batchSize, nil
	case <-ctx.Done():
		return nil, false, 0, envelope(CodeDeadline, "request deadline exceeded: %v", context.Cause(ctx))
	}
}

// Close stops admission and blocks until every pending batch has computed
// and delivered — the SIGTERM drain. Safe to call once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.drained
		return
	}
	b.closed = true
	close(b.in)
	b.mu.Unlock()
	<-b.drained
}

// dispatch is the single goroutine that groups admitted requests into
// per-cell batches and flushes them. One timer covers all pending batches:
// it is armed when the first request of an empty round arrives, and on fire
// every pending batch flushes. A batch that reaches maxBatch flushes
// immediately without waiting for the timer.
func (b *Batcher) dispatch() {
	defer close(b.drained)
	pending := make(map[string]*pendingBatch)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	timerArmed := false

	flushAll := func() {
		for key, pb := range pending {
			delete(pending, key)
			b.compute(pb)
		}
		if timerArmed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timerArmed = false
	}

	for {
		select {
		case req, ok := <-b.in:
			if !ok {
				flushAll()
				b.computing.Wait()
				return
			}
			pb := pending[req.key]
			if pb == nil {
				pb = &pendingBatch{spec: req.spec}
				pending[req.key] = pb
			}
			pb.waiters = append(pb.waiters, req)
			if len(pb.waiters) >= b.maxBatch {
				delete(pending, req.key)
				b.compute(pb)
				continue
			}
			if !timerArmed {
				timer.Reset(b.maxWait)
				timerArmed = true
			}
		case <-timer.C:
			timerArmed = false
			flushAll()
		}
	}
}

// compute counts one flushed batch and hands it to the worker pool. The
// dispatcher blocks until a worker slot frees — backpressure propagates to
// the admission queue, which sheds the overflow with 429s rather than
// growing without bound. The batch counts as in flight from here, before it
// waits for a slot, so a batch queued behind a busy pool keeps its
// function's program held.
func (b *Batcher) compute(pb *pendingBatch) {
	b.track(pb.spec, 1)
	b.mBatches.Inc()
	b.mBatched.Add(uint64(len(pb.waiters)))
	b.mBatchSize.Observe(float64(len(pb.waiters)))
	b.workers <- struct{}{}
	b.computing.Add(1)
	go func() {
		defer func() { <-b.workers; b.computing.Done() }()
		cell, cached, err := b.run(pb.spec)
		// Release before answering, so a caller that has its answer sees
		// the program already dropped if no other batch holds it.
		b.track(pb.spec, -1)
		if err != nil {
			b.mFailures.Inc()
		} else if cached {
			b.mCacheHits.Inc()
		}
		resp := batchResponse{cell: cell, cached: cached, batchSize: len(pb.waiters), err: err}
		for _, w := range pb.waiters {
			w.done <- resp
		}
	}()
}

// track adds delta to the function's in-flight batch count and releases the
// function's program when the count reaches zero.
func (b *Batcher) track(spec experiments.CellSpec, delta int) {
	b.inflightMu.Lock()
	defer b.inflightMu.Unlock()
	fn := spec.Workload.Name
	if b.inflight[fn] += delta; b.inflight[fn] == 0 {
		delete(b.inflight, fn)
		b.cache.Release(spec.Workload)
	}
}

// run executes one cell with fault injection, panic isolation, and
// transient-retry — the serving counterpart of the experiment scheduler's
// supervise loop. Injected faults fire before the cache lookup, so an
// injected failure can never poison a cached result.
func (b *Batcher) run(spec experiments.CellSpec) (cell *experiments.CellPayload, cached bool, err error) {
	site := faults.Site{Experiment: "serve", Workload: spec.Workload.Name, Config: string(spec.Config)}
	for attempt := 1; ; attempt++ {
		cell, cached, err = b.attempt(site, spec)
		if err == nil {
			return cell, cached, nil
		}
		if attempt <= experiments.DefaultRetries && faults.IsTransient(err) {
			b.mRetries.Inc()
			time.Sleep(experiments.RetryDelay(attempt))
			continue
		}
		return nil, false, err
	}
}

func (b *Batcher) attempt(site faults.Site, spec experiments.CellSpec) (cell *experiments.CellPayload, cached bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &faults.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if err := b.faults.Fire(context.Background(), site); err != nil {
		return nil, false, err
	}
	return b.cache.Invoke(spec, b.env)
}
