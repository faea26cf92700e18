package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/wire"
)

// ReadyPrefix is the line a spawned worker prints on stdout once it is
// listening, followed by its resolved address. The coordinator's spawner
// scans for it, so workers bound to port 0 can report the port the kernel
// picked.
const ReadyPrefix = "IGNITE-WORKER-READY "

// Worker executes task requests against a local cell cache. One worker
// process holds one cache for its lifetime, so repeated cells (the nl
// baseline a sweep requests for five figures) simulate once per worker,
// and concurrent requests for one key coalesce single-flight exactly as
// they do in the batch pipeline.
type Worker struct {
	cache    *experiments.CellCache
	inflight atomic.Int64
	done     atomic.Uint64

	mu       sync.Mutex
	draining bool           // guarded by mu
	wg       sync.WaitGroup // one per admitted task, added under mu
}

// NewWorker returns a worker over a fresh cell cache.
func NewWorker() *Worker {
	return &Worker{cache: experiments.NewCellCache()}
}

// BeginDrain flips the worker into shutdown mode without waiting: new
// tasks are refused with a retryable shutting-down envelope (the
// coordinator re-runs them elsewhere) while in-flight tasks keep running.
func (w *Worker) BeginDrain() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
}

// Drain begins draining and blocks until in-flight tasks finish.
func (w *Worker) Drain() {
	w.BeginDrain()
	w.wg.Wait()
}

// Handler returns the worker's HTTP API.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathTask, w.handleTask)
	mux.HandleFunc(PathHealth, w.handleHealth)
	return mux
}

func (w *Worker) handleTask(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(rw, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "%s needs POST", PathTask))
		return
	}
	// The check and the count share mu with BeginDrain, so a Drain either
	// refuses the task or waits for it.
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		wire.WriteError(rw, wire.Errorf(SchemaVersion, wire.CodeShuttingDown, "worker is draining"))
		return
	}
	w.wg.Add(1)
	w.mu.Unlock()
	defer w.wg.Done()
	w.inflight.Add(1)
	defer w.inflight.Add(-1)

	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, 16<<20))
	if err != nil {
		wire.WriteError(rw, wire.Errorf(SchemaVersion, wire.CodeBadRequest, "read body: %v", err))
		return
	}
	req, env := ParseTaskRequest(body)
	if env != nil {
		wire.WriteError(rw, env)
		return
	}
	cs := req.CellSpec()
	// The key is derived state; recomputing it proves both sides agree on
	// what this cell is. A mismatch means version skew between coordinator
	// and worker binaries — the one failure mode that could silently
	// poison a sweep's store with wrong-but-well-formed results.
	if got := cs.Key(); got != req.Key {
		wire.WriteError(rw, wire.Errorf(SchemaVersion, wire.CodeKeyMismatch,
			"coordinator key %q, this worker derives %q (mixed binary versions?)", req.Key, got))
		return
	}
	cell, cached, err := w.cache.Invoke(req.Key, cs, experiments.CellEnv{Checks: req.Checks, MaxCycles: req.MaxCycles})
	if err != nil {
		wire.WriteError(rw, wire.Errorf(SchemaVersion, wire.CodeInternal, "cell %s/%s: %v", req.Workload.Name, req.Config, err))
		return
	}
	payload, err := json.Marshal(cell)
	if err != nil {
		wire.WriteError(rw, wire.Errorf(SchemaVersion, wire.CodeInternal, "encode cell: %v", err))
		return
	}
	frame, _ := wire.NewFrame(payload) // json.Marshal output is one JSON value
	w.done.Add(1)
	wire.WriteJSON(rw, http.StatusOK, TaskResponse{
		SchemaVersion: SchemaVersion,
		Key:           req.Key,
		Cached:        cached,
		Frame:         frame,
	})
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	status := "ok"
	w.mu.Lock()
	if w.draining {
		status = "draining"
	}
	w.mu.Unlock()
	wire.WriteJSON(rw, http.StatusOK, HealthResponse{
		SchemaVersion: SchemaVersion,
		Status:        status,
		InFlight:      int(w.inflight.Load()),
		TasksDone:     w.done.Load(),
	})
}

// RunWorker is the `ignite-bench -worker` entry point: listen on addr
// (host:0 lets the kernel pick), print the ready line on stdout, and serve
// tasks until the context is canceled (SIGINT/SIGTERM), then drain. obs
// progress lines go to stderr so stdout stays machine-readable for the
// spawning coordinator.
func RunWorker(ctx context.Context, addr string) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := NewWorker()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: worker listen %s: %w", addr, err)
	}
	// Honor listener-level network chaos (conn-reset@net/<addr>/accept) from
	// the same IGNITE_FAULTS gate the cell faults use, so a spawned fleet
	// inherits the chaos plan through the environment.
	plan, err := faults.FromEnvSpec(os.Getenv(faults.EnvVar))
	if err != nil {
		return fmt.Errorf("dist: worker faults: %w", err)
	}
	ln = faults.WrapListener(plan, ln)
	srv := &http.Server{Handler: w.Handler()}
	fmt.Printf("%s%s\n", ReadyPrefix, ln.Addr().String())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("dist: worker serve: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "worker: draining")
	w.Drain()
	cells, hits := w.CacheStats()
	fmt.Fprintf(os.Stderr, "worker: done (%d cell(s) computed, %d cache hit(s))\n", cells, hits)
	return srv.Close()
}

// CacheStats reports the worker cache's distinct cells and hit count.
func (w *Worker) CacheStats() (cells, hits int) { return w.cache.Stats() }
