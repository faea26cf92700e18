package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/wire"
	"ignite/internal/workload"
)

// testInstr keeps test cells small: 3 measured invocations of ~20k
// instructions simulate in tens of milliseconds.
const testInstr = 20000

func TestParseInvokeRequestStrict(t *testing.T) {
	good := []byte(`{"schemaVersion":1,"function":"Auth-G"}`)
	req, envErr := ParseInvokeRequest(good)
	if envErr != nil {
		t.Fatalf("good request rejected: %v", envErr)
	}
	if req.Function != "Auth-G" {
		t.Errorf("function = %q", req.Function)
	}

	cases := []struct {
		name, body, code string
	}{
		{"missing version", `{"function":"Auth-G"}`, wire.CodeUnsupportedSchema},
		{"future version", `{"schemaVersion":2,"function":"Auth-G"}`, wire.CodeUnsupportedSchema},
		{"unknown field", `{"schemaVersion":1,"function":"Auth-G","wat":1}`, wire.CodeBadRequest},
		{"missing function", `{"schemaVersion":1}`, wire.CodeBadRequest},
		{"malformed", `{`, wire.CodeBadRequest},
		{"trailing data", `{"schemaVersion":1,"function":"Auth-G"} {"schemaVersion":2} garbage`, wire.CodeBadRequest},
	}
	for _, c := range cases {
		if _, envErr := ParseInvokeRequest([]byte(c.body)); envErr == nil || envErr.Code != c.code {
			t.Errorf("%s: got %+v, want code %s", c.name, envErr, c.code)
		}
	}
}

func TestTweakSpecToSim(t *testing.T) {
	spec := &TweakSpec{KeepBTB: true, BIMPolicy: "weakly-not-taken", BTBEntries: 6144}
	tw, err := spec.ToSim()
	if err != nil {
		t.Fatal(err)
	}
	if !tw.Keep.BTB || tw.Keep.BIM || tw.BTBEntries != 6144 {
		t.Errorf("tweaks = %+v", tw)
	}
	if tw.BIMPolicy == nil || tw.BIMPolicy.String() != "weakly-not-taken" {
		t.Errorf("bim policy = %v", tw.BIMPolicy)
	}
	if _, err := (&TweakSpec{BIMPolicy: "sideways"}).ToSim(); err == nil {
		t.Error("bad bim policy accepted")
	}
	// Geometry the engine would panic on must be rejected at the wire.
	for _, bad := range []*TweakSpec{
		{L2KiB: 512},       // 8192 lines not divisible by 20 ways
		{L2KiB: 400},       // divisible, but 320 sets is not a power of two
		{BTBEntries: 2048}, // not divisible by 6 ways
		{BTBEntries: 6000}, // divisible, but 1000 sets is not a power of two
		{MetadataBytes: -1},
		// Sizes past their caps would allocate without bound; the first
		// three have a valid geometry.
		{BTBEntries: 6 << 32},
		{BTBEntries: 6 << 16},
		{L2KiB: 1280 << 20},
		{L2KiB: 40960},
		{MetadataBytes: 1 << 40},
		{MetadataBytes: 1920<<10 + 1},
	} {
		if _, err := bad.ToSim(); err == nil {
			t.Errorf("invalid tweak %+v accepted", bad)
		}
	}
	for _, good := range []int{320, 640, 1280, 2560, 20480} {
		if _, err := (&TweakSpec{L2KiB: good}).ToSim(); err != nil {
			t.Errorf("valid l2KiB %d rejected: %v", good, err)
		}
	}
	// Each cap admits its own size.
	if _, err := (&TweakSpec{BTBEntries: 6 << 15, MetadataBytes: 1920 << 10}).ToSim(); err != nil {
		t.Errorf("tweaks at their caps rejected: %v", err)
	}
	var nilSpec *TweakSpec
	if tw, err := nilSpec.ToSim(); err != nil || tw != (sim.Tweaks{}) {
		t.Errorf("nil spec: %+v, %v", tw, err)
	}
}

func TestParseKindAndMode(t *testing.T) {
	if k, envErr := ParseKind(""); envErr != nil || k != sim.KindIgnite {
		t.Errorf("default kind = %v, %v", k, envErr)
	}
	if _, envErr := ParseKind("warp-drive"); envErr == nil || envErr.Code != wire.CodeUnknownConfig {
		t.Errorf("unknown kind: %+v", envErr)
	}
	if m, envErr := ParseMode("back-to-back"); envErr != nil || m != lukewarm.BackToBack {
		t.Errorf("b2b mode = %v, %v", m, envErr)
	}
	if _, envErr := ParseMode("diagonal"); envErr == nil || envErr.Code != wire.CodeUnknownMode {
		t.Errorf("unknown mode: %+v", envErr)
	}
}

// testSpec returns a small workload cell spec.
func testSpec(t *testing.T, fn string) experiments.CellSpec {
	t.Helper()
	wl, err := workload.ByName(fn)
	if err != nil {
		t.Fatal(err)
	}
	wl.TargetInstr = testInstr
	return experiments.CellSpec{Workload: wl, Config: sim.KindIgnite, Mode: lukewarm.Interleaved}
}

// waitFor polls cond until it holds.
func waitFor(cond func() bool) {
	for !cond() {
		time.Sleep(time.Millisecond)
	}
}

// flightWaiters reports how many requests have joined spec's flight (0 when
// none is in progress).
func flightWaiters(b *Batcher, spec experiments.CellSpec) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if f := b.flights[spec.Key()]; f != nil {
		return f.waiters
	}
	return 0
}

// TestBatcherCoalesces fires concurrent same-cell requests while a slow
// fault holds their flight open and asserts they share a single
// computation.
func TestBatcherCoalesces(t *testing.T) {
	plan := faults.New(1)
	if err := plan.Add("slow@serve/*/*:delay=500ms"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	b := NewBatcher(BatcherConfig{Faults: plan, Workers: 1}, reg)
	defer b.Close()
	spec := testSpec(t, "Auth-G")

	const n = 6
	var wg sync.WaitGroup
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell, _, size, envErr := b.Submit(context.Background(), spec.Key(), spec)
			if envErr != nil {
				t.Errorf("submit %d: %v", i, envErr)
				return
			}
			if cell == nil || cell.Res == nil {
				t.Errorf("submit %d: empty cell", i)
			}
			sizes[i] = size
		}(i)
	}
	wg.Wait()
	for i, size := range sizes {
		if size != n {
			t.Errorf("request %d batch size = %d, want %d (all coalesced)", i, size, n)
		}
	}
	snap := reg.Snapshot().Values()
	if got := snap["serve.batches{component=serve}"]; got != 1 {
		t.Errorf("batches = %v, want 1", got)
	}
	if got := snap["serve.batched_requests{component=serve}"]; got != n {
		t.Errorf("batched requests = %v, want %d", got, n)
	}
	if s, ok := reg.Snapshot().Get("serve.batch_size{component=serve}"); !ok || s.Max != n {
		t.Errorf("batch size max = %+v, want %d", s, n)
	}
}

// TestBatcherAdmissionControl fills the one worker and the one queue slot
// with flights of distinct cells and asserts that further new cells are shed
// with a retryable overloaded envelope instead of queuing.
func TestBatcherAdmissionControl(t *testing.T) {
	plan := faults.New(1)
	if err := plan.Add("slow@serve/*/*:delay=400ms,trips=8"); err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatcherConfig{Faults: plan, Queue: 1, Workers: 1}, nil)
	defer b.Close()

	// Distinct functions → distinct cells → distinct flights.
	fns := []string{"Auth-G", "Curr-N", "Geo-G", "Prof-G"}
	errs := make([]*wire.Envelope, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		spec := testSpec(t, fn)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _, errs[i] = b.Submit(context.Background(), spec.Key(), spec)
		}(i)
		// Sequence the submissions: the first flight takes the worker
		// (slow fault), the second waits for it, the third and fourth must
		// shed.
		switch i {
		case 0:
			waitFor(func() bool { return len(b.workers) == 1 && b.waiting.Load() == 0 })
		case 1:
			waitFor(func() bool { return flightWaiters(b, spec) == 1 })
		}
	}
	wg.Wait()
	for i, envErr := range errs {
		switch {
		case i < 2 && envErr != nil:
			t.Errorf("%s: %+v, want an answer", fns[i], envErr)
		case i >= 2 && (envErr == nil || envErr.Code != wire.CodeOverloaded || !envErr.Retryable):
			t.Errorf("%s: %+v, want a retryable %s", fns[i], envErr, wire.CodeOverloaded)
		}
	}
}

// TestBatcherDeadline submits against a slow cell with an expired budget and
// expects a retryable deadline envelope.
func TestBatcherDeadline(t *testing.T) {
	plan := faults.New(1)
	if err := plan.Add("slow@serve/*/*:delay=300ms"); err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatcherConfig{Faults: plan}, nil)
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	spec := testSpec(t, "Auth-G")
	_, _, _, envErr := b.Submit(ctx, spec.Key(), spec)
	if envErr == nil || envErr.Code != wire.CodeDeadline || !envErr.Retryable {
		t.Fatalf("got %+v, want retryable deadline", envErr)
	}
}

// TestBatcherRetriesTransient verifies the serving path reuses the
// transient-retry discipline: an injected transient fault is retried and the
// request still succeeds.
func TestBatcherRetriesTransient(t *testing.T) {
	plan := faults.New(1)
	if err := plan.Add("transient@serve/Auth-G/ignite"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	b := NewBatcher(BatcherConfig{Faults: plan}, reg)
	defer b.Close()

	spec := testSpec(t, "Auth-G")
	cell, _, _, envErr := b.Submit(context.Background(), spec.Key(), spec)
	if envErr != nil {
		t.Fatalf("submit: %v", envErr)
	}
	if cell == nil || cell.Res == nil {
		t.Fatal("empty cell after retry")
	}
	if got := reg.Snapshot().Values()["serve.cell_retries{component=serve}"]; got != 1 {
		t.Errorf("retries = %v, want 1", got)
	}
}

// TestBatcherCloseDrains closes while the flights of 2n+1 admitted requests
// wait for a worker and asserts that Close waits for them, that every
// admitted request is answered, and that submits from the start of the drain
// on are refused. The test holds the only worker slot, so both flights wait
// until it frees the slot after Close has begun.
func TestBatcherCloseDrains(t *testing.T) {
	const n = 4
	b := NewBatcher(BatcherConfig{Workers: 1}, nil)
	b.workers <- struct{}{}

	// The deadline turns a request the drain missed into an error, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	submit := func(spec experiments.CellSpec, errs []*wire.Envelope) {
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, _, errs[i] = b.Submit(ctx, spec.Key(), spec)
			}(i)
		}
	}
	errs := make([]*wire.Envelope, 2*n+1)
	blocker, spec := testSpec(t, "Curr-N"), testSpec(t, "Auth-G")
	submit(blocker, errs[n:])
	submit(spec, errs[:n])
	waitFor(func() bool { return flightWaiters(b, blocker) == n+1 && flightWaiters(b, spec) == n })

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.closed
	})
	if _, _, _, envErr := b.Submit(context.Background(), spec.Key(), spec); envErr == nil || envErr.Code != wire.CodeShuttingDown {
		t.Errorf("submit during the drain: %+v, want shutting-down", envErr)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while its flights waited for a worker")
	default:
	}
	<-b.workers
	<-closed
	wg.Wait()
	for i, envErr := range errs {
		if envErr != nil {
			t.Errorf("admitted request %d not drained: %v", i, envErr)
		}
	}
	if _, _, _, envErr := b.Submit(context.Background(), spec.Key(), spec); envErr == nil || envErr.Code != wire.CodeShuttingDown {
		t.Errorf("post-close submit: %+v, want shutting-down", envErr)
	}
}

// gateBacking is a cell store that stores nothing. It holds the first Load
// until open closes and records how many programs the cache held when the
// second Load began.
type gateBacking struct {
	cache *experiments.CellCache
	open  chan struct{}
	mu    sync.Mutex
	loads int
	held  int
}

func (g *gateBacking) Load(string) (experiments.CellPayload, bool) {
	g.mu.Lock()
	g.loads++
	first := g.loads == 1
	if g.loads == 2 {
		g.held = g.cache.Programs()
	}
	g.mu.Unlock()
	if first {
		<-g.open
	}
	return experiments.CellPayload{}, false
}

func (g *gateBacking) Save(string, experiments.CellPayload) {}

// TestBatcherHoldsProgramForQueuedBatch pins the per-function in-flight
// count. With one worker, the second of two configs of one function waits
// for the slot while the first computes; its flight counts from its start,
// so the first flight's end must not release the program, and the second
// must find it held instead of rebuilding it. The gate keeps the first cell
// from finishing until both flights have started.
func TestBatcherHoldsProgramForQueuedBatch(t *testing.T) {
	cache := experiments.NewCellCache()
	gate := &gateBacking{cache: cache, open: make(chan struct{})}
	cache.SetBacking(gate)
	b := NewBatcher(BatcherConfig{Cache: cache, Workers: 1}, nil)
	defer b.Close()

	var wg sync.WaitGroup
	var specs []experiments.CellSpec
	for _, kind := range []sim.Kind{sim.KindNL, sim.KindIgnite} {
		spec := testSpec(t, "Auth-G")
		spec.Config = kind
		specs = append(specs, spec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, envErr := b.Submit(context.Background(), spec.Key(), spec); envErr != nil {
				t.Errorf("%s: %v", spec.Config, envErr)
			}
		}()
	}
	waitFor(func() bool { return flightWaiters(b, specs[0]) == 1 && flightWaiters(b, specs[1]) == 1 })
	close(gate.open)
	wg.Wait()
	gate.mu.Lock()
	held := gate.held
	gate.mu.Unlock()
	if held != 1 {
		t.Errorf("queued batch started with %d program(s) held, want 1 (no rebuild)", held)
	}
	if got := cache.Programs(); got != 0 {
		t.Errorf("%d program(s) held after both batches, want 0", got)
	}
}

// TestBatcherJoinersHoldNoWorker pins that a request joining a flight holds
// no worker slot. With two workers, the gate holds the first Auth-G cell
// inside the cache while three more Auth-G requests join its flight; a
// Curr-N request must still find the second worker and be answered before
// the gate opens.
func TestBatcherJoinersHoldNoWorker(t *testing.T) {
	cache := experiments.NewCellCache()
	gate := &gateBacking{cache: cache, open: make(chan struct{})}
	cache.SetBacking(gate)
	b := NewBatcher(BatcherConfig{Cache: cache, Workers: 2}, nil)
	defer b.Close()

	const n = 4
	spec := testSpec(t, "Auth-G")
	sizes := make([]int, n)
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, size, envErr := b.Submit(context.Background(), spec.Key(), spec)
			if envErr != nil {
				t.Errorf("Auth-G request %d: %v", i, envErr)
			}
			sizes[i] = size
		}()
	}
	submit(0)
	waitFor(func() bool {
		gate.mu.Lock()
		defer gate.mu.Unlock()
		return gate.loads == 1
	})
	for i := 1; i < n; i++ {
		submit(i)
	}
	waitFor(func() bool { return flightWaiters(b, spec) == n })

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	curr := testSpec(t, "Curr-N")
	if _, _, _, envErr := b.Submit(ctx, curr.Key(), curr); envErr != nil {
		t.Errorf("Curr-N behind a gated Auth-G flight: %v", envErr)
	}
	close(gate.open)
	wg.Wait()
	for i, size := range sizes {
		if size != n {
			t.Errorf("Auth-G request %d batch size = %d, want %d", i, size, n)
		}
	}
}

// startTestServer boots a daemon on an ephemeral port and tears it down with
// the test.
func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.TargetInstr == 0 {
		cfg.TargetInstr = testInstr
	}
	s := NewServer(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func postInvoke(t *testing.T, addr string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+PathInvoke, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServerIntegration drives the full stack: mixed-function concurrent
// requests on an ephemeral port, coalescing visible in the batch-size
// metric, responses bit-identical to a direct lukewarm run of the same
// cell, and a live /metrics scrape racing the whole thing (this test is the
// -race proof for the serving path).
func TestServerIntegration(t *testing.T) {
	s := startTestServer(t, Config{})
	addr := s.Addr()

	// Scrape /metrics concurrently with the request storm.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			default:
				resp, err := http.Get("http://" + addr + PathMetrics)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()

	fns := []string{"Auth-G", "Curr-N"}
	const perFn = 4
	type reply struct {
		status int
		body   []byte
	}
	replies := make(chan reply, len(fns)*perFn)
	var wg sync.WaitGroup
	for _, fn := range fns {
		body := fmt.Sprintf(`{"schemaVersion":1,"function":%q,"config":"ignite"}`, fn)
		for i := 0; i < perFn; i++ {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				resp, data := postInvoke(t, addr, body)
				replies <- reply{resp.StatusCode, data}
			}(body)
		}
	}
	wg.Wait()
	close(replies)
	close(stopScrape)
	<-scrapeDone

	perFnResults := make(map[string][]InvokeResponse)
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		var ir InvokeResponse
		if err := json.Unmarshal(r.body, &ir); err != nil {
			t.Fatalf("decode: %v", err)
		}
		perFnResults[ir.Function] = append(perFnResults[ir.Function], ir)
	}

	for _, fn := range fns {
		rs := perFnResults[fn]
		if len(rs) != perFn {
			t.Fatalf("%s: %d responses, want %d", fn, len(rs), perFn)
		}
		for _, r := range rs[1:] {
			if !reflect.DeepEqual(r.Result, rs[0].Result) {
				t.Errorf("%s: responses disagree:\n%+v\n%+v", fn, r.Result, rs[0].Result)
			}
			if r.CellKey != rs[0].CellKey {
				t.Errorf("%s: cell keys disagree: %q vs %q", fn, r.CellKey, rs[0].CellKey)
			}
		}

		// Bit-identical to the batch pipeline: simulate the same cell
		// directly and compare the flattened wire result exactly.
		wl, err := workload.ByName(fn)
		if err != nil {
			t.Fatal(err)
		}
		wl.TargetInstr = testInstr
		setup, err := sim.New(wl, sim.KindIgnite)
		if err != nil {
			t.Fatal(err)
		}
		res, err := setup.Run(lukewarm.Interleaved)
		if err != nil {
			t.Fatal(err)
		}
		if direct := ResultFrom(res); !reflect.DeepEqual(direct, rs[0].Result) {
			t.Errorf("%s: served result differs from direct lukewarm run:\nserved %+v\ndirect %+v",
				fn, rs[0].Result, direct)
		}
	}

	// Coalescing must be visible in the metrics document.
	resp, err := http.Get("http://" + addr + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	doc, err := DecodeMetrics(data)
	if err != nil {
		t.Fatal(err)
	}
	batchSize, ok := doc.Get("serve.batch_size{component=serve}")
	if !ok {
		t.Fatal("batch-size metric missing from /metrics")
	}
	if batchSize.Max < 2 {
		t.Errorf("max batch size = %v, want >= 2 (no coalescing happened)", batchSize.Max)
	}
	batches := doc.Value("serve.batches{component=serve}")
	batched := doc.Value("serve.batched_requests{component=serve}")
	if batches == 0 || batched/batches <= 1 {
		t.Errorf("coalescing ratio = %v/%v, want > 1", batched, batches)
	}
}

// TestServerFastPathAndErrors checks the warm response cache and the error
// envelopes end to end.
func TestServerFastPathAndErrors(t *testing.T) {
	s := startTestServer(t, Config{})
	addr := s.Addr()
	body := `{"schemaVersion":1,"function":"Auth-G","config":"ignite"}`

	resp, data := postInvoke(t, addr, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp.StatusCode, data)
	}
	var first InvokeResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}

	resp, data = postInvoke(t, addr, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: %d %s", resp.StatusCode, data)
	}
	var second InvokeResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request was not served from the response cache")
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Error("cached response result differs from the computed one")
	}

	for _, c := range []struct {
		body   string
		status int
		code   string
	}{
		{`{"schemaVersion":9,"function":"Auth-G"}`, 400, wire.CodeUnsupportedSchema},
		{`{"schemaVersion":1,"function":"NoSuchFn"}`, 404, wire.CodeUnknownFunction},
		{`{"schemaVersion":1,"function":"Auth-G","config":"warp"}`, 404, wire.CodeUnknownConfig},
		{`{"schemaVersion":1,"function":"Auth-G","mode":"diagonal"}`, 404, wire.CodeUnknownMode},
	} {
		resp, data := postInvoke(t, addr, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.body, resp.StatusCode, c.status)
		}
		var env wire.Envelope
		if err := json.Unmarshal(data, &env); err != nil || env.Code != c.code {
			t.Errorf("%s: envelope %s (err %v), want code %s", c.body, data, err, c.code)
		}
	}
}

// TestServerResponseCacheBounded pins the response cache's bound: fifty
// spellings of one request, differing in whitespace and timeoutMs, leave one
// entry, and every spelling after the first is served from it.
func TestServerResponseCacheBounded(t *testing.T) {
	s := startTestServer(t, Config{})
	const n = 50
	var first InvokeResponse
	for i := 0; i < n; i++ {
		body := fmt.Sprintf("{%s\"schemaVersion\":1,\"function\":\"Auth-G\",\"config\":\"ignite\",\"timeoutMs\":%d}",
			strings.Repeat(" ", i%5), 60000+i)
		resp, data := postInvoke(t, s.Addr(), body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spelling %d: %d %s", i, resp.StatusCode, data)
		}
		var ir InvokeResponse
		if err := json.Unmarshal(data, &ir); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = ir
		} else if !ir.Cached || !reflect.DeepEqual(ir.Result, first.Result) {
			t.Errorf("spelling %d: cached %v, result equal %v", i, ir.Cached, reflect.DeepEqual(ir.Result, first.Result))
		}
	}
	entries := 0
	s.respCache.Range(func(any, any) bool { entries++; return true })
	if entries != 1 {
		t.Errorf("response cache holds %d entries after %d spellings of one request, want 1", entries, n)
	}
	if got := s.mFast.Value(); got != n-1 {
		t.Errorf("fast-path hits = %d, want %d", got, n-1)
	}
}

// TestServerHealthAndCatalog exercises the auxiliary endpoints.
func TestServerHealthAndCatalog(t *testing.T) {
	s := startTestServer(t, Config{})
	addr := s.Addr()

	resp, err := http.Get("http://" + addr + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, health.Status)
	}

	resp, err = http.Get("http://" + addr + PathCatalog)
	if err != nil {
		t.Fatal(err)
	}
	var cat CatalogResponse
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cat.SchemaVersion != SchemaVersion || len(cat.Functions) != len(workload.Names()) {
		t.Errorf("catalog = %+v", cat)
	}
	var hasIgnite bool
	for _, c := range cat.Configs {
		if c == "ignite" {
			hasIgnite = true
		}
	}
	if !hasIgnite {
		t.Errorf("catalog configs missing ignite: %v", cat.Configs)
	}
}

// TestMetricsDocumentVersionGate pins the strict decode posture of the
// /metrics document.
func TestMetricsDocumentVersionGate(t *testing.T) {
	doc := MetricsDocument{SchemaVersion: SchemaVersion, Kind: MetricsDocumentKind,
		Samples: []MetricSample{{Key: "serve.requests", Kind: "counter", Value: 3}}}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMetrics(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Value("serve.requests") != 3 {
		t.Errorf("round trip lost sample: %+v", back)
	}

	bumped := bytes.Replace(data, []byte(`"schemaVersion":1`), []byte(`"schemaVersion":2`), 1)
	if _, err := DecodeMetrics(bumped); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Errorf("future schema version accepted: %v", err)
	}
	wrongKind := bytes.Replace(data, []byte(MetricsDocumentKind), []byte("ignite.other"), 1)
	if _, err := DecodeMetrics(wrongKind); err == nil {
		t.Error("wrong kind accepted")
	}
}

// TestRetryAfterHeader pins the backoff contract shed clients depend on:
// retryable overload responses (429 shed, 503 shutting-down) carry a
// Retry-After hint, while permanent errors do not — a client sleeping on a
// 400 would be waiting for a success that can never come.
func TestRetryAfterHeader(t *testing.T) {
	s := startTestServer(t, Config{})
	want := strconv.Itoa(wire.RetryAfterSec)
	for _, c := range []struct {
		code string
		want string
	}{
		{wire.CodeOverloaded, want},
		{wire.CodeShuttingDown, want},
		{wire.CodeBadRequest, ""},
		{wire.CodeUnknownFunction, ""},
	} {
		rec := httptest.NewRecorder()
		s.writeError(rec, wire.Errorf(SchemaVersion, c.code, "test"))
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Errorf("%s: Retry-After = %q, want %q", c.code, got, c.want)
		}
		if rec.Code != wire.Errorf(SchemaVersion, c.code, "test").HTTPStatus() {
			t.Errorf("%s: status %d", c.code, rec.Code)
		}
	}
}

// BenchmarkWarmInvoke measures the serving wire's warm path, the steady
// state of a load test on one function: a repeated /v1/invoke answered from
// the response cache (strict decode, one lookup, one write), driven through
// the handler without a network.
func BenchmarkWarmInvoke(b *testing.B) {
	s := NewServer(Config{TargetInstr: testInstr})
	defer s.batcher.Close()
	body := []byte(`{"schemaVersion":1,"function":"Auth-G","config":"ignite"}`)
	invoke := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.handleInvoke(rec, httptest.NewRequest(http.MethodPost, PathInvoke, bytes.NewReader(body)))
		return rec
	}
	if rec := invoke(); rec.Code != http.StatusOK {
		b.Fatalf("cold request: %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := invoke(); rec.Code != http.StatusOK {
			b.Fatalf("warm request: %d %s", rec.Code, rec.Body)
		}
	}
	if hits := s.mFast.Value(); hits != uint64(b.N) {
		b.Fatalf("fast-path hits = %d, want %d", hits, b.N)
	}
}
