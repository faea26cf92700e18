package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ignite/internal/faults"
	"ignite/internal/obs"
)

// scheduler is a bounded worker pool for independent simulation cells. Each
// submitted cell runs in its own goroutine gated by a semaphore, so the
// parallelism axis is the cell — (workload, config) pair — rather than the
// workload: a matrix of W workloads × C configs exposes W×C-way parallelism
// instead of W-way with configs serialized inside each workload.
//
// Cells are isolated and supervised:
//
//   - a panic inside a cell is recovered into a *faults.PanicError and
//     reported as that cell's failure instead of crashing the process;
//   - transient failures (anything exposing Transient() bool, notably
//     injected faults.TransientError) are retried with capped exponential
//     backoff — cells are pure functions of their key, so a retried cell is
//     bit-identical to a clean one;
//   - each attempt runs under an optional per-cell deadline
//     (context.WithTimeout), which the fault-injection sites honor;
//   - under FailFast the first definitive failure cancels the run (cells
//     that have not started yet are skipped); under ContinueOnError the
//     remaining cells complete and failures are reported per cell.
//
// Every cell's fate is recorded as an outcome in submission order, so error
// aggregation and per-cell status reports are deterministic regardless of
// scheduling interleavings. Context cancellation (Ctrl-C in the CLIs) skips
// unstarted cells; cells already inside fn run to completion, so the drain
// is clean — and a worker waiting for a semaphore slot gives up immediately
// instead of acquiring a slot just to discover the run is dead.
type scheduler struct {
	parent  context.Context
	ctx     context.Context
	cancel  context.CancelFunc
	sem     chan struct{}
	wg      sync.WaitGroup
	id      ID
	policy  FailurePolicy
	timeout time.Duration
	retries int
	tracer  obs.Tracer
	health  *obs.RunHealth

	mu       sync.Mutex
	outcomes []schedOutcome
	n        int
}

// schedOutcome is the recorded fate of one submitted cell.
type schedOutcome struct {
	idx      int // submission order, the deterministic sort key
	workload string
	config   string
	status   CellStatus
	attempts int
	err      error // non-nil only for StatusFailed
}

// newScheduler builds a pool from the run options. opt should already have
// defaults applied; Parallel is clamped defensively.
func newScheduler(ctx context.Context, id ID, opt Options) *scheduler {
	if ctx == nil {
		ctx = context.Background()
	}
	parallel := opt.Parallel
	if parallel < 1 {
		parallel = 1
	}
	retries := opt.Retries
	switch {
	case retries == 0:
		retries = DefaultRetries
	case retries < 0:
		retries = 0
	}
	cctx, cancel := context.WithCancel(ctx)
	return &scheduler{
		parent:  ctx,
		ctx:     cctx,
		cancel:  cancel,
		sem:     make(chan struct{}, parallel),
		id:      id,
		policy:  opt.FailurePolicy,
		timeout: opt.CellTimeout,
		retries: retries,
		tracer:  opt.Tracer,
		health:  opt.Health,
	}
}

// submit queues one cell. fn runs once a worker slot frees up, unless the
// run was canceled first — by an earlier FailFast failure or by the parent
// context — in which case the cell is recorded as skipped.
func (s *scheduler) submit(workload, config string, fn func(ctx context.Context, attempt int) error) {
	s.mu.Lock()
	idx := s.n
	s.n++
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case s.sem <- struct{}{}:
		case <-s.ctx.Done():
			s.skip(idx, workload, config)
			return
		}
		defer func() { <-s.sem }()
		if s.ctx.Err() != nil {
			s.skip(idx, workload, config)
			return
		}
		s.supervise(idx, workload, config, fn)
	}()
}

// supervise runs one cell's attempt/retry loop to a definitive outcome.
func (s *scheduler) supervise(idx int, wl, cfg string, fn func(ctx context.Context, attempt int) error) {
	attempt := 0
	for {
		attempt++
		err := s.attempt(wl, cfg, attempt, fn)
		if err == nil {
			status := StatusOK
			if attempt > 1 {
				status = StatusRetried
			}
			s.record(schedOutcome{idx: idx, workload: wl, config: cfg, status: status, attempts: attempt})
			return
		}
		if s.ctx.Err() == nil && attempt <= s.retries && faults.IsTransient(err) {
			d := RetryDelay(attempt)
			if s.health != nil {
				s.health.Retries.Add(1)
			}
			if s.tracer != nil {
				s.tracer.CellRetried(obs.CellRetriedEvent{
					Experiment: string(s.id), Workload: wl, Config: cfg,
					Attempt: attempt, Backoff: d, Err: err.Error(),
				})
			}
			sleepCtx(s.ctx, d)
			continue
		}
		cerr := &CellError{ID: s.id, Workload: wl, Config: cfg, Attempt: attempt, Err: err}
		s.record(schedOutcome{idx: idx, workload: wl, config: cfg,
			status: StatusFailed, attempts: attempt, err: cerr})
		if s.health != nil {
			s.health.Failed.Add(1)
		}
		if s.tracer != nil {
			s.tracer.CellFailed(obs.CellFailedEvent{
				Experiment: string(s.id), Workload: wl, Config: cfg,
				Status: string(StatusFailed), Attempts: attempt, Err: cerr.Error(),
			})
		}
		if s.policy == FailFast {
			s.cancel()
		}
		return
	}
}

// attempt runs fn once under the per-cell deadline with panic isolation.
func (s *scheduler) attempt(wl, cfg string, attempt int, fn func(ctx context.Context, attempt int) error) (err error) {
	ctx := s.ctx
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(s.ctx, s.timeout,
			fmt.Errorf("experiments: cell %s/%s exceeded its %s deadline", wl, cfg, s.timeout))
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			if s.health != nil {
				s.health.Panics.Add(1)
			}
			err = &faults.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	err = fn(ctx, attempt)
	if err != nil && ctx.Err() != nil && s.ctx.Err() == nil && s.health != nil {
		s.health.Deadlines.Add(1)
	}
	return err
}

func (s *scheduler) skip(idx int, wl, cfg string) {
	s.record(schedOutcome{idx: idx, workload: wl, config: cfg, status: StatusSkipped})
	if s.health != nil {
		s.health.Skipped.Add(1)
	}
	if s.tracer != nil {
		s.tracer.CellFailed(obs.CellFailedEvent{
			Experiment: string(s.id), Workload: wl, Config: cfg,
			Status: string(StatusSkipped),
		})
	}
}

func (s *scheduler) record(o schedOutcome) {
	s.mu.Lock()
	s.outcomes = append(s.outcomes, o)
	s.mu.Unlock()
}

// wait blocks until every submitted cell has finished or been skipped and
// returns the outcomes sorted by submission order — deterministic no matter
// how the pool interleaved the work.
func (s *scheduler) wait() []schedOutcome {
	s.wg.Wait()
	s.cancel()
	s.mu.Lock()
	outs := s.outcomes
	s.mu.Unlock()
	sort.Slice(outs, func(i, j int) bool { return outs[i].idx < outs[j].idx })
	return outs
}

// joinOutcomes folds failed outcomes (plus the parent cancellation, if any)
// into one error, preserving submission order.
func joinOutcomes(outs []schedOutcome, parentErr error) error {
	var errs []error
	for _, o := range outs {
		if o.err != nil {
			errs = append(errs, o.err)
		}
	}
	if parentErr != nil {
		errs = append(errs, parentErr)
	}
	return errors.Join(errs...)
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
