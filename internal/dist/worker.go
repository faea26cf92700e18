package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
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
	"ignite/internal/obs"
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
	draining atomic.Bool
	wg       sync.WaitGroup
}

// NewWorker returns a worker over a fresh cell cache.
func NewWorker() *Worker {
	return &Worker{cache: experiments.NewCellCache()}
}

// BeginDrain flips the worker into shutdown mode without waiting: new
// tasks are refused with a retryable shutting-down envelope (the
// coordinator re-runs them elsewhere) while in-flight tasks keep running.
func (w *Worker) BeginDrain() {
	w.draining.Store(true)
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

func writeJSON(rw http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	rw.Write(append(data, '\n'))
}

func writeError(rw http.ResponseWriter, env *ErrorEnvelope) {
	writeJSON(rw, env.HTTPStatus(), env)
}

func (w *Worker) handleTask(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, envelope(CodeBadRequest, "%s needs POST", PathTask))
		return
	}
	if w.draining.Load() {
		writeError(rw, envelope(CodeShuttingDown, "worker is draining"))
		return
	}
	w.wg.Add(1)
	defer w.wg.Done()
	w.inflight.Add(1)
	defer w.inflight.Add(-1)

	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, 16<<20))
	if err != nil {
		writeError(rw, envelope(CodeBadRequest, "read body: %v", err))
		return
	}
	req, env := ParseTaskRequest(body)
	if env != nil {
		writeError(rw, env)
		return
	}
	cs := req.CellSpec()
	// The key is derived state; recomputing it proves both sides agree on
	// what this cell is. A mismatch means version skew between coordinator
	// and worker binaries — the one failure mode that could silently
	// poison a sweep's store with wrong-but-well-formed results.
	if got := cs.Key(); got != req.Key {
		writeError(rw, envelope(CodeKeyMismatch,
			"coordinator key %q, this worker derives %q (mixed binary versions?)", req.Key, got))
		return
	}
	cell, cached, err := w.cache.Invoke(cs, experiments.CellEnv{Checks: req.Checks, MaxCycles: req.MaxCycles})
	if err != nil {
		writeError(rw, envelope(CodeInternal, "cell %s/%s: %v", req.Workload.Name, req.Config, err))
		return
	}
	payload, err := json.Marshal(cell)
	if err != nil {
		writeError(rw, envelope(CodeInternal, "encode cell: %v", err))
		return
	}
	w.done.Add(1)
	writeJSON(rw, http.StatusOK, TaskResponse{
		SchemaVersion: SchemaVersion,
		Key:           req.Key,
		Cached:        cached,
		CRC:           crc32.ChecksumIEEE(payload),
		Cell:          payload,
	})
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	status := "ok"
	if w.draining.Load() {
		status = "draining"
	}
	writeJSON(rw, http.StatusOK, HealthResponse{
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

// RegisterMetrics exports the worker's counters on reg.
func (w *Worker) RegisterMetrics(reg *obs.Registry) {
	l := obs.L("component", "dist-worker")
	reg.CounterFunc("dist.worker_tasks_done", l, w.done.Load)
	reg.GaugeFunc("dist.worker_inflight", l, func() float64 { return float64(w.inflight.Load()) })
}
