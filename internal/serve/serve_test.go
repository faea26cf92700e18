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
		{"missing version", `{"function":"Auth-G"}`, CodeUnsupportedSchema},
		{"future version", `{"schemaVersion":2,"function":"Auth-G"}`, CodeUnsupportedSchema},
		{"unknown field", `{"schemaVersion":1,"function":"Auth-G","wat":1}`, CodeBadRequest},
		{"missing function", `{"schemaVersion":1}`, CodeBadRequest},
		{"malformed", `{`, CodeBadRequest},
	}
	for _, c := range cases {
		if _, envErr := ParseInvokeRequest([]byte(c.body)); envErr == nil || envErr.Code != c.code {
			t.Errorf("%s: got %+v, want code %s", c.name, envErr, c.code)
		}
	}
}

func TestErrorEnvelopeMapping(t *testing.T) {
	cases := []struct {
		code      string
		status    int
		retryable bool
	}{
		{CodeBadRequest, 400, false},
		{CodeUnsupportedSchema, 400, false},
		{CodeUnknownFunction, 404, false},
		{CodeOverloaded, 429, true},
		{CodeShuttingDown, 503, true},
		{CodeDeadline, 504, true},
		{CodeInternal, 500, false},
	}
	for _, c := range cases {
		e := envelope(c.code, "x")
		if e.HTTPStatus() != c.status || e.Retryable != c.retryable {
			t.Errorf("%s: status %d retryable %v, want %d %v",
				c.code, e.HTTPStatus(), e.Retryable, c.status, c.retryable)
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
	} {
		if _, err := bad.ToSim(); err == nil {
			t.Errorf("invalid tweak %+v accepted", bad)
		}
	}
	for _, good := range []int{320, 640, 1280, 2560} {
		if _, err := (&TweakSpec{L2KiB: good}).ToSim(); err != nil {
			t.Errorf("valid l2KiB %d rejected: %v", good, err)
		}
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
	if _, envErr := ParseKind("warp-drive"); envErr == nil || envErr.Code != CodeUnknownConfig {
		t.Errorf("unknown kind: %+v", envErr)
	}
	if m, envErr := ParseMode("back-to-back"); envErr != nil || m != lukewarm.BackToBack {
		t.Errorf("b2b mode = %v, %v", m, envErr)
	}
	if _, envErr := ParseMode("diagonal"); envErr == nil || envErr.Code != CodeUnknownMode {
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

// TestBatcherCoalesces fires concurrent same-cell requests during one
// max-wait window and asserts they share a single computation.
func TestBatcherCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBatcher(BatcherConfig{MaxWait: 50 * time.Millisecond, Workers: 1}, reg)
	defer b.Close()
	spec := testSpec(t, "Auth-G")

	const n = 6
	var wg sync.WaitGroup
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell, _, size, envErr := b.Submit(context.Background(), spec)
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

// TestBatcherAdmissionControl forces the dispatcher to block on a busy
// worker pool and asserts the bounded queue sheds the overflow with an
// overloaded envelope instead of growing.
func TestBatcherAdmissionControl(t *testing.T) {
	plan := faults.New(1)
	if err := plan.Add("slow@serve/*/*:delay=400ms,trips=8"); err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatcherConfig{
		Faults:   plan,
		MaxBatch: 1, // every request is its own batch
		MaxWait:  time.Millisecond,
		Queue:    1,
		Workers:  1,
	}, nil)
	defer b.Close()

	// Distinct functions → distinct cells → distinct batches.
	fns := []string{"Auth-G", "Curr-N", "Geo-G", "Prof-G"}
	specs := make([]experiments.CellSpec, 0, len(fns))
	for _, fn := range fns {
		specs = append(specs, testSpec(t, fn))
	}

	results := make(chan *ErrorEnvelope, len(specs))
	for i, spec := range specs {
		go func(spec experiments.CellSpec) {
			_, _, _, envErr := b.Submit(context.Background(), spec)
			results <- envErr
		}(spec)
		// Sequence the submissions: the first occupies the worker (slow
		// fault), the second blocks the dispatcher, the third sits in the
		// queue, the fourth must shed.
		if i < len(specs)-1 {
			time.Sleep(60 * time.Millisecond)
		}
	}

	var shed int
	for range specs {
		if envErr := <-results; envErr != nil {
			if envErr.Code != CodeOverloaded {
				t.Errorf("unexpected error: %+v", envErr)
			} else if !envErr.Retryable {
				t.Error("overloaded must be retryable")
			} else {
				shed++
			}
		}
	}
	if shed == 0 {
		t.Error("no request was shed by the bounded queue")
	}
}

// TestBatcherDeadline submits against a slow cell with an expired budget and
// expects a retryable deadline envelope.
func TestBatcherDeadline(t *testing.T) {
	plan := faults.New(1)
	if err := plan.Add("slow@serve/*/*:delay=300ms"); err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(BatcherConfig{Faults: plan, MaxWait: time.Millisecond}, nil)
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, _, envErr := b.Submit(ctx, testSpec(t, "Auth-G"))
	if envErr == nil || envErr.Code != CodeDeadline || !envErr.Retryable {
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
	b := NewBatcher(BatcherConfig{Faults: plan, MaxWait: time.Millisecond}, reg)
	defer b.Close()

	cell, _, _, envErr := b.Submit(context.Background(), testSpec(t, "Auth-G"))
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

// TestBatcherCloseDrains closes while n admitted requests are still pending
// in the dispatcher and asserts every admitted request was answered and
// later submits are refused. The test holds the only worker slot, so a full
// blocker batch parks the dispatcher in compute and the n requests wait in
// the admission queue, where len(b.in) counts them. They fill no batch
// (MaxBatch is n+1) and the timer is a minute away, so only the drain in
// Close can flush them.
func TestBatcherCloseDrains(t *testing.T) {
	const n = 4
	b := NewBatcher(BatcherConfig{MaxBatch: n + 1, MaxWait: time.Minute, Workers: 1}, nil)
	b.workers <- struct{}{}

	// The deadline turns a request the drain missed into an error, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	submit := func(spec experiments.CellSpec, errs []*ErrorEnvelope) {
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, _, errs[i] = b.Submit(ctx, spec)
			}(i)
		}
	}
	errs := make([]*ErrorEnvelope, 2*n+1)
	submit(testSpec(t, "Curr-N"), errs[n:]) // the blocker batch
	for b.mBatches.Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	spec := testSpec(t, "Auth-G")
	submit(spec, errs[:n])
	for len(b.in) < n {
		time.Sleep(time.Millisecond)
	}
	<-b.workers
	b.Close()
	wg.Wait()
	for i, envErr := range errs {
		if envErr != nil {
			t.Errorf("admitted request %d not drained: %v", i, envErr)
		}
	}
	if _, _, _, envErr := b.Submit(context.Background(), spec); envErr == nil || envErr.Code != CodeShuttingDown {
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
// for the slot while the first computes; it counts as in flight from its
// flush, so the first batch's end must not release the program, and the
// second must find it held instead of rebuilding it. The gate keeps the
// first cell from finishing until both batches have flushed.
func TestBatcherHoldsProgramForQueuedBatch(t *testing.T) {
	cache := experiments.NewCellCache()
	gate := &gateBacking{cache: cache, open: make(chan struct{})}
	cache.SetBacking(gate)
	b := NewBatcher(BatcherConfig{Cache: cache, MaxBatch: 1, MaxWait: time.Minute, Workers: 1}, nil)
	defer b.Close()

	var wg sync.WaitGroup
	for _, kind := range []sim.Kind{sim.KindNL, sim.KindIgnite} {
		spec := testSpec(t, "Auth-G")
		spec.Config = kind
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, envErr := b.Submit(context.Background(), spec); envErr != nil {
				t.Errorf("%s: %v", spec.Config, envErr)
			}
		}()
	}
	for b.mBatches.Value() < 2 {
		time.Sleep(time.Millisecond)
	}
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
	s := startTestServer(t, Config{MaxWait: 40 * time.Millisecond})
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
		{`{"schemaVersion":9,"function":"Auth-G"}`, 400, CodeUnsupportedSchema},
		{`{"schemaVersion":1,"function":"NoSuchFn"}`, 404, CodeUnknownFunction},
		{`{"schemaVersion":1,"function":"Auth-G","config":"warp"}`, 404, CodeUnknownConfig},
		{`{"schemaVersion":1,"function":"Auth-G","mode":"diagonal"}`, 404, CodeUnknownMode},
	} {
		resp, data := postInvoke(t, addr, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.body, resp.StatusCode, c.status)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Code != c.code {
			t.Errorf("%s: envelope %s (err %v), want code %s", c.body, data, err, c.code)
		}
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
	want := strconv.Itoa(RetryAfterSec)
	for _, c := range []struct {
		code string
		want string
	}{
		{CodeOverloaded, want},
		{CodeShuttingDown, want},
		{CodeBadRequest, ""},
		{CodeUnknownFunction, ""},
	} {
		rec := httptest.NewRecorder()
		s.writeError(rec, envelope(c.code, "test"))
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Errorf("%s: Retry-After = %q, want %q", c.code, got, c.want)
		}
		if rec.Code != envelope(c.code, "test").HTTPStatus() {
			t.Errorf("%s: status %d", c.code, rec.Code)
		}
	}
}
