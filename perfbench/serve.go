package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ignite/internal/fleet/population"
	"ignite/internal/obs"
	"ignite/internal/serve"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// maxLagP99 is the generator validity limit: a run whose generator left
// requests this late (at the 99th percentile) measured the generator, not
// the server, and is rejected. While cold cells keep both CPUs busy a
// sender goroutine can wait out the scheduler's 10 ms preemption quantum,
// so serve-fleet's lag p99 reaches about 9 ms; serve-hot's stays near 1 ms.
const maxLagP99 = 20 * time.Millisecond

// hotParams sizes the serve-hot workload.
type hotParams struct {
	// Function is the Table-1 function whose ignite cell is served hot, at
	// its Table-1 instruction budget.
	Function string
	// Rate is the offered Poisson load in requests per second.
	Rate float64
	// SubRuns splits the window; latency quantiles are medians over them.
	SubRuns int
	// Setups is the number of fresh servers started and primed in set-up.
	Setups int
}

var defaultHot = hotParams{Function: "Auth-G", Rate: 6000, SubRuns: 5, Setups: 5}

// fleetPopulationSeed fixes the sampled population, so that every run
// serves the same functions and a run's cost does not depend on which
// functions its seed drew; the workload seed draws the arrival tape.
const fleetPopulationSeed = 1

// fleetPrime is the cell each serve-fleet set-up primes: a Table-1
// function, outside the sampled population, at the fleet's budget.
const fleetPrime = "Auth-G"

// fleetParams sizes the serve-fleet workload.
type fleetParams struct {
	// N functions are sampled from the fleet population, their arrival
	// rates scaled by RateScale.
	N         int
	RateScale float64
	// TargetInstr is the server's instruction-budget override.
	TargetInstr uint64
	// Setups is the number of fresh servers started and primed in set-up.
	Setups int
}

var defaultFleet = fleetParams{N: 80, RateScale: 0.5, TargetInstr: 20_000, Setups: 5}

// arrival is one request of an open-loop tape: due at offset At from the
// start of the tape, asking for function Fn.
type arrival struct {
	At time.Duration
	Fn int
}

// poisson appends a Poisson process of the given rate on (from, to).
func poisson(tape []arrival, rng *rand.Rand, rate float64, from, to time.Duration, fn int) []arrival {
	if rate <= 0 {
		return tape
	}
	for t := from; ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= to {
			return tape
		}
		tape = append(tape, arrival{At: t, Fn: fn})
	}
}

// hotTape is sub-run k of serve-hot: one function at a constant rate.
func hotTape(seed uint64, k int, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x686f74<<8|uint64(k))) // "hot"
	return poisson(nil, rng, rate, 0, d, 0)
}

// fleetTape is serve-fleet's rolling deployment: function i is live during
// [0.7·d·i/n, +0.3·d]; its first request arrives when it goes live, so it
// finds its cell cold, and later ones follow a Poisson process at the
// function's sampled rate.
func fleetTape(seed uint64, rates []float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x666c656574)) // "fleet"
	n := len(rates)
	var tape []arrival
	for i, rate := range rates {
		start := time.Duration(0.7 * float64(d) * float64(i) / float64(n))
		tape = append(tape, arrival{At: start, Fn: i})
		tape = poisson(tape, rng, rate, start, start+d*3/10, i)
	}
	sort.SliceStable(tape, func(a, b int) bool { return tape[a].At < tape[b].At })
	return tape
}

// outcome is one sent request, its instants as offsets from the start of
// the tape: due, ready (the later of due and its sender becoming free),
// sent and done. Latency (due to done) splits into queueing for a busy
// sender (due to ready), the generator's own lateness, or lag (ready to
// sent), and service on the wire and in the server (sent to done).
type outcome struct {
	due, ready, sent, done time.Duration
	ok                     bool
}

func (o outcome) lat() time.Duration   { return o.done - o.due }
func (o outcome) queue() time.Duration { return o.ready - o.due }
func (o outcome) lag() time.Duration   { return o.sent - o.ready }
func (o outcome) svc() time.Duration   { return o.done - o.sent }

// client is the load generator's HTTP side: one transport with at most
// nproc connections, shared by nproc sender goroutines.
type client struct {
	hc      *http.Client
	tr      *http.Transport
	senders int
}

func newClient() *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, senders: n}
}

func (c *client) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// drive plays a tape open loop: each sender takes the next due request in
// order, waits for its due time if it is early, and sends it. A request
// that finds every sender busy waits, and that wait counts in its latency.
// It returns the tape's start and one outcome per arrival.
func (c *client) drive(url string, bodies [][]byte, tape []arrival) (time.Time, []outcome) {
	out := make([]outcome, len(tape))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < c.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tape) {
					return
				}
				o := outcome{due: tape[i].At, ready: time.Since(t0)} // the sender is free from here on
				if d := o.due - o.ready; d > 0 {
					time.Sleep(d)
					o.ready = o.due
				}
				o.sent = time.Since(t0)
				code, _, err := c.post(url, bodies[tape[i].Fn])
				o.done = time.Since(t0)
				o.ok = err == nil && code == http.StatusOK
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return t0, out
}

func invokeBody(fn string) []byte {
	body, err := json.Marshal(serve.InvokeRequest{SchemaVersion: serve.SchemaVersion, Function: fn, Config: "ignite"})
	if err != nil {
		panic(err) // a fixed struct of strings always encodes
	}
	return body
}

// daemon is one running server under test.
type daemon struct {
	srv  *serve.Server
	base string // http://host:port
	reg  *obs.Registry
}

// startDaemon starts a server on a loopback ephemeral port.
func (r *run) startDaemon(cfg serve.Config) (*daemon, error) {
	cfg.Addr = "127.0.0.1:0"
	cfg.Registry = obs.NewRegistry()
	if r.tr != nil {
		cfg.Tracer = r.tr
	}
	srv := serve.NewServer(cfg)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &daemon{srv: srv, base: "http://" + srv.Addr(), reg: cfg.Registry}, nil
}

// setUp starts n daemons one after another, each configured by newConfig
// and primed with one request for body, and stops each before starting the
// next. It records setup_s, the median time from configuring a daemon to
// its primed response, and returns the last daemon, still running, with
// the priming latencies in ms.
func (r *run) setUp(c *client, n int, newConfig func() (serve.Config, error), body []byte) (*daemon, []float64, error) {
	var d *daemon
	var setups, primes []float64
	for i := 0; i < n; i++ {
		if d != nil {
			if err := d.stop(c); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		cfg, err := newConfig()
		if err != nil {
			return nil, nil, err
		}
		if d, err = r.startDaemon(cfg); err != nil {
			return nil, nil, err
		}
		sent := time.Now()
		if code, _, err := c.post(d.base+serve.PathInvoke, body); err != nil || code != http.StatusOK {
			d.stop(c)
			return nil, nil, fmt.Errorf("priming: status %d: %v", code, err)
		}
		primes = append(primes, ms(time.Since(sent)))
		setups = append(setups, time.Since(start).Seconds())
		r.span("setup", 0, start, time.Now())
	}
	r.timing("setup_s", median(setups), len(setups))
	return d, primes, nil
}

// stop drains the server and drops the client's connections to it.
func (d *daemon) stop(c *client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	c.tr.CloseIdleConnections()
	return err
}

// serveCounters reads the serve.* counters of a server's registry.
func serveCounters(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for key, v := range reg.Snapshot().Values() {
		name, _, _ := strings.Cut(key, "{")
		if strings.HasPrefix(name, "serve.") {
			out[name] += v
		}
	}
	return out
}

// cacheStats reads the daemon's cell-cache occupancy from /healthz.
func cacheStats(c *client, base string) (cells, hits float64, err error) {
	resp, err := c.hc.Get(base + serve.PathHealthz)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Cells    float64 `json:"cells"`
		CellHits float64 `json:"cellHits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, 0, fmt.Errorf("healthz: %w", err)
	}
	return h.Cells, h.CellHits, nil
}

// served is what the gate needs about one served function.
type served struct {
	spec workload.Spec // as the server resolves it (budget override applied)
	body []byte
}

// latencies splits a tape's outcomes into the samples the metrics use.
type latencies struct {
	all, queue, lag, warmSvc []float64
	sent, ok                 int
}

func (l *latencies) add(o outcome, warm bool) {
	l.sent++
	if !o.ok {
		return
	}
	l.ok++
	l.all = append(l.all, ms(o.lat()))
	l.queue = append(l.queue, ms(o.queue()))
	l.lag = append(l.lag, ms(o.lag()))
	if warm {
		l.warmSvc = append(l.warmSvc, float64(o.svc())/1e3)
	}
}

func runHot(ctx context.Context, r *run) error {
	p := r.cfg.Hot
	spec, err := workload.ByName(p.Function)
	if err != nil {
		return err
	}
	c := newClient()
	body := invokeBody(p.Function)
	r.printf("inputs function=%s config=ignite rate=%g subruns=%d senders=%d conns=%d",
		p.Function, p.Rate, p.SubRuns, c.senders, c.senders)

	// The priming request of each set-up is this workload's cold request.
	d, colds, err := r.setUp(c, p.Setups, func() (serve.Config, error) { return serve.Config{}, nil }, body)
	if err != nil {
		return err
	}
	defer d.stop(c)
	r.timing("cold_p50_ms", median(colds), len(colds))

	before := serveCounters(d.reg)
	w, err := r.openWindow()
	if err != nil {
		return err
	}
	sub := r.cfg.Window / time.Duration(p.SubRuns)
	var p50, p99, queue50, svc50, svc99, lag50, lag99 []float64
	total := latencies{}
	for k := 0; k < p.SubRuns; k++ {
		var l latencies
		t0, outs := c.drive(d.base+serve.PathInvoke, [][]byte{body}, hotTape(r.cfg.Seed, k, p.Rate, sub))
		for _, o := range outs {
			l.add(o, true)
		}
		r.requestSpans(fmt.Sprintf("subrun-%d", k), t0, outs, nil, 100)
		total.sent += l.sent
		total.ok += l.ok
		p50 = append(p50, median(l.all))
		p99 = append(p99, quantile(l.all, 0.99))
		queue50 = append(queue50, median(l.queue))
		svc50 = append(svc50, median(l.warmSvc))
		svc99 = append(svc99, quantile(l.warmSvc, 0.99))
		lag50 = append(lag50, median(l.lag))
		lag99 = append(lag99, quantile(l.lag, 0.99))
	}
	if err := r.closeWindow(w, total.sent); err != nil {
		return err
	}
	r.phase("hot", total.sent, total.ok)
	r.printf("samples per sub-run: %d requests over %d sub-runs; quantiles are medians over sub-runs",
		total.sent/p.SubRuns, p.SubRuns)
	r.timing("warm_p50_ms", median(p50), total.ok)
	r.set("client.p99_ms", median(p99))
	r.set("client.queue_p50_ms", median(queue50))
	r.set("client.svc_p50_us", median(svc50))
	r.set("client.svc_p99_us", median(svc99))
	r.set("client.lag_p50_ms", median(lag50))
	r.set("client.lag_p99_ms", median(lag99))
	r.serveLayers(before, serveCounters(d.reg))
	if err := r.retained(c, d.base); err != nil {
		return err
	}
	if r.tr != nil {
		r.tr.engineLayers(r, 1)
		if err := r.tr.generatorLayers(r, []workload.Spec{spec}); err != nil {
			return err
		}
	}
	r.checkLag(median(lag99))
	return r.checkServed(c, d.base, []served{{spec: spec, body: body}})
}

func runFleet(ctx context.Context, r *run) error {
	p := r.cfg.Fleet
	c := newClient()
	var fns []population.Function
	d, _, err := r.setUp(c, p.Setups, func() (serve.Config, error) {
		var err error
		fns, err = population.Sample(population.Params{Seed: fleetPopulationSeed, N: p.N, RateScale: p.RateScale})
		return serve.Config{Population: population.Specs(fns), TargetInstr: p.TargetInstr}, err
	}, invokeBody(fleetPrime))
	if err != nil {
		return err
	}
	defer d.stop(c)

	fleet := make([]served, len(fns))
	bodies := make([][]byte, len(fns))
	rates := make([]float64, len(fns))
	for i, f := range fns {
		spec := f.Spec
		spec.TargetInstr = p.TargetInstr
		bodies[i] = invokeBody(f.Name)
		fleet[i] = served{spec: spec, body: bodies[i]}
		rates[i] = f.RatePerSec
	}
	tape := fleetTape(r.cfg.Seed, rates, r.cfg.Window)
	r.printf("inputs functions=%d rateScale=%g targetInstr=%d requests=%d senders=%d conns=%d",
		p.N, p.RateScale, p.TargetInstr, len(tape), c.senders, c.senders)

	before := serveCounters(d.reg)
	w, err := r.openWindow()
	if err != nil {
		return err
	}
	t0, outs := c.drive(d.base+serve.PathInvoke, bodies, tape)
	if err := r.closeWindow(w, len(tape)); err != nil {
		return err
	}
	var cold, warm latencies
	var coldSvc []float64
	seen := make([]bool, len(fns))
	isCold := make([]bool, len(outs))
	for i, o := range outs {
		fn := tape[i].Fn
		if seen[fn] {
			warm.add(o, true)
			continue
		}
		seen[fn] = true
		isCold[i] = true
		cold.add(o, false)
		if o.ok {
			coldSvc = append(coldSvc, ms(o.svc()))
		}
	}
	r.requestSpans("window", t0, outs, isCold, 16)
	r.phase("cold", cold.sent, cold.ok)
	r.phase("warm", warm.sent, warm.ok)
	r.timing("cold_p50_ms", median(cold.all), len(cold.all))
	r.timing("warm_p50_ms", median(warm.all), len(warm.all))
	all := append(append([]float64(nil), cold.all...), warm.all...)
	lag := append(append([]float64(nil), cold.lag...), warm.lag...)
	r.set("client.p99_ms", quantile(all, 0.99))
	r.set("client.queue_p50_ms", median(append(append([]float64(nil), cold.queue...), warm.queue...)))
	r.set("client.svc_p50_us", median(warm.warmSvc))
	r.set("client.svc_p99_us", quantile(warm.warmSvc, 0.99))
	r.set("client.cold_svc_p50_ms", median(coldSvc))
	r.set("client.lag_p50_ms", median(lag))
	r.set("client.lag_p99_ms", quantile(lag, 0.99))
	r.serveLayers(before, serveCounters(d.reg))
	if err := r.retained(c, d.base); err != nil {
		return err
	}
	if r.tr != nil {
		r.tr.engineLayers(r, 1)
		specs := make([]workload.Spec, len(fleet))
		for i, f := range fleet {
			specs[i] = f.spec
		}
		if err := r.tr.generatorLayers(r, specs); err != nil {
			return err
		}
	}
	r.checkLag(quantile(lag, 0.99))
	return r.checkServed(c, d.base, fleet)
}

// requestSpans records, in a traced run, a span called name covering the
// tape and, under it, a span for every cold request and for every every-th
// warm one, each with a child span for its time on the wire.
func (r *run) requestSpans(name string, t0 time.Time, outs []outcome, cold []bool, every int) {
	if r.tr == nil || len(outs) == 0 {
		return
	}
	end := t0
	for _, o := range outs {
		if e := t0.Add(o.done); e.After(end) {
			end = e
		}
	}
	parent := r.span(name, 0, t0, end)
	for i, o := range outs {
		c := cold != nil && cold[i]
		if !c && i%every != 0 {
			continue
		}
		kind := "request:warm"
		if c {
			kind = "request:cold"
		}
		id := r.span(kind, parent, t0.Add(o.due), t0.Add(o.done))
		r.span("wire", id, t0.Add(o.sent), t0.Add(o.done))
	}
}

// serveLayers reports the daemon's own counters over the window.
func (r *run) serveLayers(before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	for _, name := range []string{"serve.requests", "serve.fast_path_hits", "serve.batches",
		"serve.batched_requests", "serve.cell_cache_hits", "serve.shed"} {
		r.set(name, d(name))
	}
	if b := d("serve.batches"); b > 0 {
		r.set("serve.coalescing_ratio", d("serve.batched_requests")/b)
	}
}

// retained records the daemon's live heap with the server still up, and its
// cell-cache occupancy.
func (r *run) retained(c *client, base string) error {
	cells, hits, err := cacheStats(c, base)
	if err != nil {
		return err
	}
	mb := retainedMB()
	r.set("retained_mb", mb)
	r.set("experiments.cells", cells)
	r.set("experiments.cell_hits", hits)
	if cells > 0 {
		r.set("retained.mb_per_cell", mb/cells)
	}
	return nil
}

func (r *run) checkLag(p99 float64) {
	if p99 > ms(maxLagP99) {
		r.problemf("invalid run: generator lag p99 %.2f ms exceeds %v", p99, maxLagP99)
	}
}

// checkServed re-requests every served cell once, after the window, and
// compares its result with serve.ResultFrom of a direct sim.New/Run of the
// same cell spec. In a traced run the direct simulations also supply the
// served cells' work counts.
func (r *run) checkServed(c *client, base string, fns []served) error {
	start := time.Now()
	defer func() { r.span("check", 0, start, time.Now()) }()
	sent, ok := 0, 0
	for _, f := range fns {
		sent++
		code, data, err := c.post(base+serve.PathInvoke, f.body)
		if err != nil || code != http.StatusOK {
			r.problemf("%s: re-request status %d: %v", f.spec.Name, code, err)
			continue
		}
		setup, res, err := simulate(f.spec, sim.KindIgnite)
		if err != nil {
			return err
		}
		if r.tr != nil {
			reg := obs.NewRegistry()
			setup.RegisterMetrics(reg)
			r.tr.countWork(reg.Snapshot().Values())
		}
		if err := compareServed(data, serve.ResultFrom(res)); err != nil {
			r.problemf("%s: %v", f.spec.Name, err)
			continue
		}
		ok++
	}
	r.printf("check served=%d matching=%d", sent, ok)
	if r.tr != nil {
		for _, name := range []string{"btb.lookups", "cache.accesses", "itlb.lookups"} {
			r.set(name, r.tr.work[name])
		}
	}
	return nil
}

// compareServed checks a served response body against the direct result.
func compareServed(body []byte, want serve.InvocationResult) error {
	var resp serve.InvokeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if !reflect.DeepEqual(resp.Result, want) {
		return fmt.Errorf("served result %+v differs from direct simulation %+v", resp.Result, want)
	}
	return nil
}
