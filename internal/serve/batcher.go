package serve

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/obs"
	"ignite/internal/wire"
)

// Batcher defaults; overridable through Config.
const (
	defaultQueueSize = 1024
	defaultWorkers   = 2
)

// flight is one in-progress computation of a cell. The request that finds
// no flight for its cell starts one; every later request for the cell joins
// it until it ends, and all of them share its outcome.
type flight struct {
	spec    experiments.CellSpec
	waiters int           // requests that joined, guarded by Batcher.mu; fixed once the flight ends
	done    chan struct{} // closed once the outcome below is set

	cell   *experiments.CellPayload
	cached bool
	err    error
}

// Batcher coalesces concurrent invocation requests for the same simulation
// cell onto one engine run. The first request for a cell starts a flight,
// which takes a worker slot and computes the cell through the experiment
// layer's single-flight CellCache; every request for the cell that arrives
// before the flight ends joins it without taking a slot. No request waits
// for batch-mates, and a cell still computing never holds a second worker
// that another function's cold cell could use. Served results are
// bit-identical to the batch pipeline's by construction.
//
// Admission is bounded in flights: a request that would start one while
// queue flights already wait for a worker is shed; joining costs no work
// and is never refused. A function's program stays cached only while a
// flight of that function is in progress: the end of its last flight
// releases the program and its traces (CellCache.Release) and keeps the
// cells.
type Batcher struct {
	cache   *experiments.CellCache
	env     experiments.CellEnv
	faults  *faults.Plan
	queue   int
	workers chan struct{} // one token per computing flight
	waiting atomic.Int64  // flights waiting for a worker token

	mu       sync.Mutex
	closed   bool
	flights  map[string]*flight // in progress, by CellSpec.Key()
	inflight map[string]int     // flights in progress per function name
	running  sync.WaitGroup     // one per flight in progress

	mBatches   *obs.Counter
	mBatched   *obs.Counter
	mCacheHits *obs.Counter
	mRetries   *obs.Counter
	mFailures  *obs.Counter
	mBatchSize *obs.Distribution
}

// BatcherConfig shapes one Batcher.
type BatcherConfig struct {
	Cache   *experiments.CellCache
	Env     experiments.CellEnv
	Faults  *faults.Plan // nil = no injection
	Queue   int          // flights that may wait for a worker before new cells shed
	Workers int          // concurrent cell computations
}

// NewBatcher builds a batcher and registers its metric family into reg
// (nil = a private registry).
func NewBatcher(cfg BatcherConfig, reg *obs.Registry) *Batcher {
	if cfg.Cache == nil {
		cfg.Cache = experiments.NewCellCache()
	}
	if cfg.Queue <= 0 {
		cfg.Queue = defaultQueueSize
	}
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := obs.L("component", "serve")
	b := &Batcher{
		cache:      cfg.Cache,
		env:        cfg.Env,
		faults:     cfg.Faults,
		queue:      cfg.Queue,
		workers:    make(chan struct{}, cfg.Workers),
		flights:    make(map[string]*flight),
		inflight:   make(map[string]int),
		mBatches:   reg.Counter("serve.batches", l),
		mBatched:   reg.Counter("serve.batched_requests", l),
		mCacheHits: reg.Counter("serve.cell_cache_hits", l),
		mRetries:   reg.Counter("serve.cell_retries", l),
		mFailures:  reg.Counter("serve.cell_failures", l),
		mBatchSize: reg.Distribution("serve.batch_size", l),
	}
	reg.GaugeFunc("serve.queue_depth", l, func() float64 { return float64(b.waiting.Load()) })
	return b
}

// Submit joins the flight of spec's cell, whose key is spec.Key() (the
// caller hashes the cell once and passes the key in), starting one if none
// is in progress, and blocks until the flight ends, the context expires, or
// the batcher is shut down. On success it returns the served cell, whether
// the cell came from the cache, and how many requests shared this
// computation. Failures come back as *wire.Envelope: overloaded when a new
// flight would exceed the queue, shutting-down after Close, deadline on
// context expiry (the flight still completes and warms the cache for a
// retry), internal for simulation errors.
func (b *Batcher) Submit(ctx context.Context, key string, spec experiments.CellSpec) (*experiments.CellPayload, bool, int, *wire.Envelope) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, false, 0, wire.Errorf(SchemaVersion, wire.CodeShuttingDown, "server is draining")
	}
	f := b.flights[key]
	if f == nil {
		if b.waiting.Load() >= int64(b.queue) {
			b.mu.Unlock()
			return nil, false, 0, wire.Errorf(SchemaVersion, wire.CodeOverloaded, "admission queue full (%d flights wait for a worker)", b.queue)
		}
		f = &flight{spec: spec, done: make(chan struct{})}
		b.flights[key] = f
		b.waiting.Add(1)
		b.inflight[spec.Workload.Name]++
		b.running.Add(1)
		go b.fly(key, f)
	}
	f.waiters++
	b.mu.Unlock()

	select {
	case <-f.done:
		if f.err != nil {
			return nil, false, 0, wire.Errorf(SchemaVersion, wire.CodeInternal, "%v", f.err)
		}
		return f.cell, f.cached, f.waiters, nil
	case <-ctx.Done():
		return nil, false, 0, wire.Errorf(SchemaVersion, wire.CodeDeadline, "request deadline exceeded: %v", context.Cause(ctx))
	}
}

// Close stops admission and blocks until every flight has ended and answered
// its waiters — the SIGTERM drain.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.running.Wait()
}

// fly computes f's cell on a worker slot, then ends the flight: later
// requests start a new one, the function's program is released if no other
// flight of it is in progress, and the batch is counted before every waiter
// is answered.
func (b *Batcher) fly(key string, f *flight) {
	defer b.running.Done()
	b.workers <- struct{}{}
	b.waiting.Add(-1)
	cell, cached, err := b.run(key, f.spec)
	<-b.workers

	b.mu.Lock()
	delete(b.flights, key)
	fn := f.spec.Workload.Name
	if b.inflight[fn]--; b.inflight[fn] == 0 {
		delete(b.inflight, fn)
		// Release before answering, so a caller that has its answer sees
		// the program already dropped if no other flight holds it.
		b.cache.Release(f.spec.Workload)
	}
	b.mu.Unlock()

	b.mBatches.Inc()
	b.mBatched.Add(uint64(f.waiters))
	b.mBatchSize.Observe(float64(f.waiters))
	if err != nil {
		b.mFailures.Inc()
	} else if cached {
		b.mCacheHits.Inc()
	}
	f.cell, f.cached, f.err = cell, cached, err
	close(f.done)
}

// run executes one cell with fault injection, panic isolation, and
// transient-retry — the serving counterpart of the experiment scheduler's
// supervise loop. Injected faults fire before the cache lookup, so an
// injected failure can never poison a cached result.
func (b *Batcher) run(key string, spec experiments.CellSpec) (cell *experiments.CellPayload, cached bool, err error) {
	site := faults.Site{Experiment: "serve", Workload: spec.Workload.Name, Config: string(spec.Config)}
	for attempt := 1; ; attempt++ {
		cell, cached, err = b.attempt(site, key, spec)
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

func (b *Batcher) attempt(site faults.Site, key string, spec experiments.CellSpec) (cell *experiments.CellPayload, cached bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &faults.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if err := b.faults.Fire(context.Background(), site); err != nil {
		return nil, false, err
	}
	return b.cache.Invoke(key, spec, b.env)
}
