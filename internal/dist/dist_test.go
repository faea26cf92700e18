package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/lukewarm"
	"ignite/internal/sim"
	"ignite/internal/wire"
	"ignite/internal/workload"
)

// TestMain doubles as the supervisor tests' worker entry point: the test
// binary, re-executed with IGNITE_DIST_TEST_WORKER set, becomes a real
// worker process (the `ignite-bench -worker` equivalent) instead of
// running the test suite.
func TestMain(m *testing.M) {
	if addr := os.Getenv("IGNITE_DIST_TEST_WORKER"); addr != "" {
		if err := RunWorker(context.Background(), addr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testWorkerCommand re-executes this test binary as a worker process via
// the TestMain hook.
func testWorkerCommand(t *testing.T) func(addr string) (*exec.Cmd, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(addr string) (*exec.Cmd, error) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "IGNITE_DIST_TEST_WORKER="+addr)
		return cmd, nil
	}
}

// testOpts builds a two-workload experiment configuration small enough for
// unit tests (same shrink as the experiments package's chaos tests).
func testOpts(t *testing.T) experiments.Options {
	t.Helper()
	var specs []workload.Spec
	for _, name := range []string{"Fib-G", "Auth-G"} {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s.TargetInstr /= 8
		specs = append(specs, s)
	}
	return experiments.Options{Workloads: specs, Parallel: 2}
}

// startWorkers boots n in-process workers on httptest servers and returns
// their addresses.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv := httptest.NewServer(NewWorker().Handler())
		t.Cleanup(srv.Close)
		addrs[i] = strings.TrimPrefix(srv.URL, "http://")
	}
	return addrs
}

func docBytes(t *testing.T, res *experiments.Result, opt experiments.Options) []byte {
	t.Helper()
	man := opt.Manifest()
	man.GoVersion = ""
	data, err := res.Document(man).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDistByteIdenticalToLocal is the tentpole's core promise: a sweep
// whose cells were computed by remote workers produces the exact same
// document — values, tables, per-cell metrics, manifest cache statistics —
// as the same sweep computed in process.
func TestDistByteIdenticalToLocal(t *testing.T) {
	optLocal := testOpts(t)
	optLocal.Cache = experiments.NewCellCache()
	resLocal, err := experiments.Run(context.Background(), "fig1", optLocal)
	if err != nil {
		t.Fatal(err)
	}
	docLocal := docBytes(t, resLocal, optLocal)

	coord, err := NewCoordinator(CoordinatorOptions{Addrs: startWorkers(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	optDist := testOpts(t)
	optDist.Cache = experiments.NewCellCache()
	optDist.Cache.SetRemote(coord.Remote())
	resDist, err := experiments.Run(context.Background(), "fig1", optDist)
	if err != nil {
		t.Fatal(err)
	}
	docDist := docBytes(t, resDist, optDist)

	if !bytes.Equal(docLocal, docDist) {
		t.Error("distributed document differs from local run")
	}
	if tasks, _ := coord.Stats(); tasks != 4 {
		t.Errorf("coordinator completed %d tasks, want 4 (2 workloads x 2 configs)", tasks)
	}
}

// TestDistAblationByteIdentical pins that ablation cells ship to workers
// like figure cells: abl-throttle through a two-worker coordinator exports
// the local run's document bytes, and every one of its cells — the nl
// baseline plus the five thresholds per workload — completes remotely.
func TestDistAblationByteIdentical(t *testing.T) {
	optLocal := testOpts(t)
	optLocal.Cache = experiments.NewCellCache()
	resLocal, err := experiments.Run(context.Background(), "abl-throttle", optLocal)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := NewCoordinator(CoordinatorOptions{Addrs: startWorkers(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	optDist := testOpts(t)
	optDist.Cache = experiments.NewCellCache()
	optDist.Cache.SetRemote(coord.Remote())
	resDist, err := experiments.Run(context.Background(), "abl-throttle", optDist)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(docBytes(t, resLocal, optLocal), docBytes(t, resDist, optDist)) {
		t.Error("distributed abl-throttle document differs from local run")
	}
	if tasks, _ := coord.Stats(); tasks != uint64(6*len(optDist.Workloads)) {
		t.Errorf("coordinator completed %d tasks, want %d (nl plus 5 thresholds per workload)", tasks, 6*len(optDist.Workloads))
	}
}

// TestWorkerRejectsKeyMismatch pins the version-skew guard: a task whose
// coordinator-computed key disagrees with the worker's derivation must be
// refused with a permanent key-mismatch envelope, never computed.
func TestWorkerRejectsKeyMismatch(t *testing.T) {
	addr := startWorkers(t, 1)[0]
	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	req := TaskRequest{
		SchemaVersion: SchemaVersion,
		Key:           "not-the-real-key",
		Workload:      spec,
		Config:        sim.KindNL,
		Mode:          lukewarm.Interleaved,
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+PathTask, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var env wire.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Code != wire.CodeKeyMismatch || env.Retryable {
		t.Errorf("envelope = %+v, want permanent %s", env, wire.CodeKeyMismatch)
	}
}

// TestWorkerRejectsBadTweaks pins tweak validation on the dist wire: a task
// asking for a geometry the engine cannot build (a one-entry BTB), or for a
// valid geometry past its size cap (whose allocation would kill the worker
// with a fatal out-of-memory error no recover can catch), is refused with a
// permanent bad-request envelope, not computed.
func TestWorkerRejectsBadTweaks(t *testing.T) {
	addr := startWorkers(t, 1)[0]
	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range []sim.Tweaks{
		{BTBEntries: 1},
		{BTBEntries: 6 << 32},
		{L2KiB: 1280 << 20},
		{MetadataBytes: 1 << 40},
	} {
		cs := experiments.CellSpec{Workload: spec, Config: sim.KindIgnite, Tweaks: tw, Mode: lukewarm.Interleaved}
		body, _ := json.Marshal(TaskRequest{
			SchemaVersion: SchemaVersion,
			Key:           cs.Key(),
			Workload:      cs.Workload,
			Config:        cs.Config,
			Tweaks:        cs.Tweaks,
			Mode:          cs.Mode,
		})
		resp, err := http.Post("http://"+addr+PathTask, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env wire.Envelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Code != wire.CodeBadRequest || env.Retryable {
			t.Errorf("%+v: status %d, envelope %+v, want 400 and a permanent %s", tw, resp.StatusCode, env, wire.CodeBadRequest)
		}
	}
}

// TestCoordinatorFailover points the coordinator at one dead address and
// one live worker: every cell must still complete (the dead worker's
// failures reroute, not fail, the sweep), the dead worker must end down
// and the live one up, and the health counters must record the failures.
func TestCoordinatorFailover(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	live := startWorkers(t, 1)[0]

	coord, err := NewCoordinator(CoordinatorOptions{Addrs: []string{dead, live}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	opt := testOpts(t)
	opt.Cache = experiments.NewCellCache()
	opt.Cache.SetRemote(coord.Remote())
	res, err := experiments.Run(context.Background(), "fig1", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Errorf("failures = %v, want none (failover should absorb the dead worker)", res.Failures)
	}

	if coord.workers[0].up.Load() || !coord.workers[1].up.Load() {
		t.Errorf("health bits: dead up=%v, live up=%v, want false and true",
			coord.workers[0].up.Load(), coord.workers[1].up.Load())
	}
	if coord.Health().Failures == 0 {
		t.Error("no worker failures recorded despite a dead worker")
	}
}

// TestCoordinatorSpreadsConcurrentCells dispatches two cells at once to
// two workers that each hold every task until both tasks have arrived: the
// second cell's pick must see the first cell's claim and choose the other,
// idle worker.
func TestCoordinatorSpreadsConcurrentCells(t *testing.T) {
	var arrived atomic.Int32
	both := make(chan struct{})
	var got [2]atomic.Int32
	var addrs []string
	for i := range got {
		h := NewWorker().Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathTask {
				got[i].Add(1)
				if arrived.Add(1) == 2 {
					close(both)
				}
				select {
				case <-both:
				case <-r.Context().Done():
				}
			}
			h.ServeHTTP(rw, r)
		}))
		defer srv.Close()
		addrs = append(addrs, strings.TrimPrefix(srv.URL, "http://"))
	}
	coord, err := NewCoordinator(CoordinatorOptions{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	remote := coord.Remote()
	var wg sync.WaitGroup
	specs := distinctCells(t, 2)
	errs := make([]error, len(specs))
	for i, cs := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = remote(context.Background(), cs.Key(), cs, experiments.CellEnv{})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	if a, b := got[0].Load(), got[1].Load(); a != 1 || b != 1 {
		t.Errorf("workers got %d and %d of the 2 concurrent cells, want 1 each", a, b)
	}
}

// TestDrainingWorkerShedsRetryable: a draining worker refuses new tasks
// with a retryable shutting-down envelope, which the coordinator surfaces
// as a transient error (so the scheduler retries elsewhere).
func TestDrainingWorkerShedsRetryable(t *testing.T) {
	w := NewWorker()
	w.Drain() // no in-flight work: flips to draining immediately
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	cs := experiments.CellSpec{Workload: spec, Config: sim.KindNL, Mode: lukewarm.Interleaved}
	coord, err := NewCoordinator(CoordinatorOptions{Addrs: []string{addr}, MaxDispatchRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	_, rerr := coord.Remote()(context.Background(), cs.Key(), cs, experiments.CellEnv{})
	var we *WorkerError
	if !errors.As(rerr, &we) || !faults.IsTransient(rerr) {
		t.Fatalf("draining worker error = %v, want transient *WorkerError", rerr)
	}

	// Health endpoint reports the drain.
	resp, err := http.Get(srv.URL + PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health status = %q, want draining", h.Status)
	}
}

// TestParseTaskRequestStrict pins the wire API's strictness: unknown
// fields, trailing data, foreign schema versions and missing identities are
// rejected.
func TestParseTaskRequestStrict(t *testing.T) {
	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	good := TaskRequest{
		SchemaVersion: SchemaVersion,
		Key:           "k",
		Workload:      spec,
		Config:        sim.KindNL,
	}
	body, _ := json.Marshal(good)
	if _, env := ParseTaskRequest(body); env != nil {
		t.Fatalf("valid request rejected: %v", env)
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"unknown field": func(b []byte) []byte {
			return append(b[:len(b)-1], []byte(`,"surprise":1}`)...)
		},
		"wrong schema": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"schemaVersion":1`), []byte(`"schemaVersion":9`), 1)
		},
		"missing key": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"key":"k"`), []byte(`"key":""`), 1)
		},
		"trailing data": func(b []byte) []byte {
			return append(b, []byte(` trailing`)...)
		},
	} {
		if _, env := ParseTaskRequest(mangle(bytes.Clone(body))); env == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// distinctCells returns n distinct cells of a shrunk Fib-G, varying its
// instruction budget.
func distinctCells(t *testing.T, n int) []experiments.CellSpec {
	t.Helper()
	base, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	base.TargetInstr /= 8
	specs := make([]experiments.CellSpec, n)
	for i := range specs {
		s := base
		s.TargetInstr += uint64(i)
		specs[i] = experiments.CellSpec{Workload: s, Config: sim.KindNL, Mode: lukewarm.Interleaved}
	}
	return specs
}

// payloadBytes canonicalizes a cell payload for byte-identity checks.
func payloadBytes(t *testing.T, p experiments.CellPayload) []byte {
	t.Helper()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTaskCancelNotWorkerFault pins error attribution: canceling a cell's
// own context mid-call must end that task only — the worker is not blamed
// (Health().Failures stays 0), no failover slot burns, and the worker
// stays admitted.
func TestTaskCancelNotWorkerFault(t *testing.T) {
	// The "worker" answers health probes but hangs every task until the
	// client gives up — the shape of a long cell, not a broken worker. The
	// stop channel unblocks lingering handlers at cleanup so the server can
	// close.
	stop := make(chan struct{})
	health := NewWorker().Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathHealth {
			health.ServeHTTP(rw, r)
			return
		}
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	defer srv.Close()
	defer close(stop)
	addr := strings.TrimPrefix(srv.URL, "http://")

	coord, err := NewCoordinator(CoordinatorOptions{Addrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	cs := experiments.CellSpec{Workload: spec, Config: sim.KindNL, Mode: lukewarm.Interleaved}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, rerr := coord.Remote()(ctx, cs.Key(), cs, experiments.CellEnv{})
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("canceled cell returned %v, want context.Canceled", rerr)
	}
	if h := coord.Health(); h.Failures != 0 {
		t.Errorf("Health().Failures = %d after a task-owned cancel, want 0", h.Failures)
	}
	if !coord.WorkersHealthy() {
		t.Error("worker lost admission over a task-owned cancel")
	}
}

// TestWorkerDrainShedsInFlightFailover is the SIGTERM-drain story at the
// coordinator's level: a request outstanding against a worker when its
// drain begins is shed with a retryable envelope, the coordinator fails
// over, and every cell still completes byte-identical to a local compute.
func TestWorkerDrainShedsInFlightFailover(t *testing.T) {
	// Hold the first task on the wire — on whichever worker the coordinator
	// picks — so the drain demonstrably begins while a request is
	// outstanding.
	var held atomic.Bool
	inflight := make(chan *Worker, 1)
	release := make(chan struct{})
	var addrs []string
	for i := 0; i < 2; i++ {
		w := NewWorker()
		h := w.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathTask && held.CompareAndSwap(false, true) {
				inflight <- w
				<-release
			}
			h.ServeHTTP(rw, r)
		}))
		defer srv.Close()
		addrs = append(addrs, strings.TrimPrefix(srv.URL, "http://"))
	}

	coord, err := NewCoordinator(CoordinatorOptions{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	specs := distinctCells(t, 2)
	remote := coord.Remote()
	type out struct {
		p   experiments.CellPayload
		err error
	}
	res1 := make(chan out, 1)
	go func() {
		p, err := remote(context.Background(), specs[0].Key(), specs[0], experiments.CellEnv{})
		res1 <- out{p, err}
	}()
	var holder *Worker
	select {
	case holder = <-inflight: // the first task is outstanding against holder
	case <-time.After(30 * time.Second):
		t.Fatal("the first task never reached a worker")
	}
	holder.BeginDrain()
	close(release) // holder now answers it with the retryable shutting-down shed

	var r1 out
	select {
	case r1 = <-res1:
	case <-time.After(30 * time.Second):
		t.Fatal("cell 0 never completed after the drain")
	}
	if r1.err != nil {
		t.Fatalf("cell 0 failed despite failover: %v", r1.err)
	}
	p2, err := remote(context.Background(), specs[1].Key(), specs[1], experiments.CellEnv{})
	if err != nil {
		t.Fatalf("cell 1 failed despite failover: %v", err)
	}

	// Byte-identical to a local compute of the same cells.
	local := experiments.NewCellCache()
	for i, p := range []experiments.CellPayload{r1.p, p2} {
		served, _, err := local.Invoke(specs[i].Key(), specs[i], experiments.CellEnv{})
		if err != nil {
			t.Fatal(err)
		}
		want := payloadBytes(t, experiments.CellPayload{Res: served.Res, Metrics: served.Metrics})
		if !bytes.Equal(payloadBytes(t, p), want) {
			t.Errorf("cell %d: failover payload differs from local compute", i)
		}
	}
	// Cell 0 deterministically fails over (it was on the drained worker's
	// wire when the drain began). Cell 1 goes to the healthy worker, the
	// drained one being down, so only one failover is guaranteed.
	if _, failovers := coord.Stats(); failovers < 1 {
		t.Errorf("failovers = %d, want >= 1 (the in-flight cell was shed by the draining worker)", failovers)
	}
}

// gatedBacking holds every cell load until release closes, after a send on
// entered: a task it holds has been admitted and is inside the handler.
type gatedBacking struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gatedBacking) Load(string) (experiments.CellPayload, bool) {
	g.entered <- struct{}{}
	<-g.release
	return experiments.CellPayload{}, false
}

func (g *gatedBacking) Save(string, experiments.CellPayload) {}

// TestWorkerDrainWaitsForAdmittedTask is the lossless drain at the worker's
// level: Drain returns only after a task admitted before the drain began has
// answered 200, while a task that arrives during the drain is shed with a
// retryable 503 that carries the Retry-After hint.
func TestWorkerDrainWaitsForAdmittedTask(t *testing.T) {
	w := NewWorker()
	gate := &gatedBacking{entered: make(chan struct{}, 1), release: make(chan struct{})}
	w.cache.SetBacking(gate)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // before srv.Close, which waits for the held handler

	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	spec.TargetInstr /= 8
	cs := experiments.CellSpec{Workload: spec, Config: sim.KindNL, Mode: lukewarm.Interleaved}
	body, _ := json.Marshal(TaskRequest{SchemaVersion: SchemaVersion, Key: cs.Key(),
		Workload: cs.Workload, Config: cs.Config, Mode: cs.Mode})
	post := func() (*http.Response, error) {
		return http.Post(srv.URL+PathTask, "application/json", bytes.NewReader(body))
	}

	status := make(chan int, 1)
	go func() {
		resp, err := post()
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-gate.entered // the first task is admitted and held

	w.BeginDrain()
	drained := make(chan struct{})
	go func() {
		w.Drain()
		close(drained)
	}()

	resp, err := post()
	if err != nil {
		t.Fatal(err)
	}
	var env wire.Envelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable || env.Code != wire.CodeShuttingDown ||
		!env.Retryable || resp.Header.Get("Retry-After") != strconv.Itoa(wire.RetryAfterSec) {
		t.Errorf("task during drain: status %d, Retry-After %q, envelope %+v (err %v), want a retryable 503 %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), env, err, wire.CodeShuttingDown)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while an admitted task was still running")
	default:
	}

	release()
	<-drained
	if n := w.done.Load(); n != 1 {
		t.Errorf("Drain returned with %d task(s) answered, want 1", n)
	}
	if got := <-status; got != http.StatusOK {
		t.Errorf("admitted task answered %d, want 200", got)
	}
}

// TestStalledWorkerFailsOver: a worker that stops answering mid-task — the
// task call and its health probes both hang — is found by the prober,
// whose unanswered probe quarantines it and abandons the stuck attempt, so
// the cell fails over and completes on the other worker, byte-identical
// to a local compute.
func TestStalledWorkerFailsOver(t *testing.T) {
	// Whichever worker receives the first task stalls from then on, on
	// every path, until cleanup.
	var stalled atomic.Int32
	stalled.Store(-1)
	stop := make(chan struct{})
	var addrs []string
	for i := 0; i < 2; i++ {
		id := int32(i)
		h := NewWorker().Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathTask {
				stalled.CompareAndSwap(-1, id)
			}
			if stalled.Load() == id {
				select {
				case <-r.Context().Done():
				case <-stop:
				}
				return
			}
			h.ServeHTTP(rw, r)
		}))
		defer srv.Close()
		addrs = append(addrs, strings.TrimPrefix(srv.URL, "http://"))
	}
	defer close(stop)

	coord, err := NewCoordinator(CoordinatorOptions{Addrs: addrs, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A small cell: the rescue itself costs up to a probe timeout (2s).
	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	spec.TargetInstr /= 64
	cs := experiments.CellSpec{Workload: spec, Config: sim.KindNL, Mode: lukewarm.Interleaved}
	// Bounded, so a missing rescue fails the test instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	got, err := coord.Remote()(ctx, cs.Key(), cs, experiments.CellEnv{})
	if err != nil {
		t.Fatalf("cell on a stalled worker failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= 5*time.Second {
		t.Errorf("cell took %v: the prober never rescued it from the stalled worker", elapsed)
	}
	served, _, err := experiments.NewCellCache().Invoke(cs.Key(), cs, experiments.CellEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payloadBytes(t, got), payloadBytes(t, experiments.CellPayload{Res: served.Res, Metrics: served.Metrics})) {
		t.Error("failover payload differs from local compute")
	}
	if _, failovers := coord.Stats(); failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", failovers)
	}
	if h := coord.Health(); h.Quarantines < 1 {
		t.Errorf("quarantines = %d, want >= 1 (the stalled worker was never marked down)", h.Quarantines)
	}
}

// TestProberReadmitsRestartedWorker: a quarantined worker is re-admitted
// by the background prober — without sacrificing a task — once a
// replacement process answers /v1/health on the same address.
func TestProberReadmitsRestartedWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the worker is "down"

	coord, err := NewCoordinator(CoordinatorOptions{
		Addrs:             []string{addr},
		ProbeInterval:     20 * time.Millisecond,
		MaxDispatchRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	spec.TargetInstr /= 8
	cs := experiments.CellSpec{Workload: spec, Config: sim.KindNL, Mode: lukewarm.Interleaved}
	if _, err := coord.Remote()(context.Background(), cs.Key(), cs, experiments.CellEnv{}); err == nil {
		t.Fatal("cell against a dead fleet succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for coord.Health().Quarantines == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if coord.Health().Quarantines == 0 {
		t.Fatal("dead worker was never quarantined")
	}

	// The worker "restarts" on its old address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewWorker().Handler()}
	go srv.Serve(ln2)
	defer srv.Close()

	for !coord.WorkersHealthy() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !coord.WorkersHealthy() {
		t.Fatal("restarted worker was never re-admitted by the prober")
	}
	h := coord.Health()
	if h.Readmits < 1 || h.Probes < 1 {
		t.Errorf("readmits = %d, probes = %d, want both >= 1", h.Readmits, h.Probes)
	}
	if _, err := coord.Remote()(context.Background(), cs.Key(), cs, experiments.CellEnv{}); err != nil {
		t.Errorf("cell after re-admission failed: %v", err)
	}
}

// TestSupervisorRestartsWorker SIGKILLs a supervised worker process and
// expects a replacement serving /v1/health on the same address.
func TestSupervisorRestartsWorker(t *testing.T) {
	s, err := StartSupervisor(SupervisorOptions{
		Workers:        1,
		Command:        testWorkerCommand(t),
		RestartBackoff: 20 * time.Millisecond,
		Log:            func(format string, args ...any) { t.Logf("supervisor: "+format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addrs()[0]

	healthy := func() bool {
		resp, err := http.Get("http://" + addr + PathHealth)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	if !healthy() {
		t.Fatal("fresh worker does not answer health")
	}
	if err := s.Kill(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !healthy() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !healthy() {
		t.Fatal("killed worker never came back on its address")
	}
	if s.Restarts() < 1 {
		t.Errorf("restarts = %d, want >= 1", s.Restarts())
	}
}
