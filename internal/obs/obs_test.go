package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLabelsCanonical(t *testing.T) {
	a := L("workload", "Auth-G", "config", "ignite")
	b := L("config", "ignite", "workload", "Auth-G")
	if a.String() != b.String() {
		t.Errorf("label order not canonical: %q vs %q", a, b)
	}
	if got, want := a.String(), "config=ignite,workload=Auth-G"; got != want {
		t.Errorf("labels = %q, want %q", got, want)
	}
	if got := a.With("mode", "interleaved").String(); !strings.Contains(got, "mode=interleaved") {
		t.Errorf("With lost the new label: %q", got)
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fetches", L("component", "l1i"))
	c.Add(41)
	c.Inc()
	if r.Counter("fetches", L("component", "l1i")) != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("cpi", nil)
	g.Set(1.5)
	d := r.Distribution("latency", nil)
	d.Observe(10)
	d.Observe(20)
	backing := uint64(7)
	r.CounterFunc("bridged", nil, func() uint64 { return backing })

	snap := r.Snapshot()
	v := snap.Values()
	if v["fetches{component=l1i}"] != 42 {
		t.Errorf("counter = %v", v)
	}
	if v["cpi"] != 1.5 || v["bridged"] != 7 {
		t.Errorf("gauge/bridge = %v", v)
	}
	if s, ok := snap.Get("latency"); !ok || s.Count != 2 || s.Min != 10 || s.Max != 20 || s.Value != 15 {
		t.Errorf("distribution sample = %+v", s)
	}
	backing = 9
	if r.Snapshot().Values()["bridged"] != 9 {
		t.Error("CounterFunc not read-through")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []string) Snapshot {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name, L("w", "x")).Inc()
		}
		return r.Snapshot()
	}
	a := build([]string{"zeta", "alpha", "mid"})
	b := build([]string{"mid", "zeta", "alpha"})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("snapshots differ by registration order:\n%v\n%v", a, b)
	}
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Counter("shared", nil)
			r.Gauge("g", L("i", "fixed"))
		}()
	}
	wg.Wait()
	if n := len(r.Snapshot()); n != 2 {
		t.Errorf("got %d metrics, want 2", n)
	}
}

// TestInstrumentsConcurrentScrape hammers every registry-owned instrument
// from many goroutines while another scrapes snapshots — the serving
// daemon's /metrics access pattern. Run under -race (scripts/ci.sh does),
// this is the proof that registry-owned instruments are scrape-safe; the
// read-through CounterFunc here deliberately uses an atomic source, per the
// contract documented on CounterFunc.
func TestInstrumentsConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs", nil)
	g := r.Gauge("inflight", nil)
	d := r.Distribution("batch", nil)
	var backing atomic.Uint64
	r.CounterFunc("bridged", nil, func() uint64 { return backing.Load() })

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				d.Observe(float64(i % 32))
				backing.Add(1)
				g.Add(-1)
			}
		}()
	}
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapes.Wait()

	snap := r.Snapshot()
	v := snap.Values()
	if v["reqs"] != workers*iters || v["bridged"] != workers*iters {
		t.Errorf("lost updates: %v", v)
	}
	if v["inflight"] != 0 {
		t.Errorf("inflight gauge = %v, want 0", v["inflight"])
	}
	if s, _ := snap.Get("batch"); s.Count != workers*iters {
		t.Errorf("distribution count = %d, want %d", s.Count, workers*iters)
	}
}

func TestCollectorAndMulti(t *testing.T) {
	var a, b Collector
	var tr Tracer = MultiTracer{&a, &b}
	tr.InvocationStart(InvocationStartEvent{Seed: 1})
	tr.CellDone(CellDoneEvent{Experiment: "fig8", Workload: "Auth-G", Config: "ignite"})
	tr.CellDone(CellDoneEvent{Experiment: "fig8", Workload: "Auth-G", Config: "nl", Cached: true})
	for _, c := range []*Collector{&a, &b} {
		if c.Count("") != 3 || c.Count("cell_done") != 2 || c.Count("invocation_start") != 1 {
			t.Errorf("collector counts wrong: %+v", c.Events)
		}
	}
}

func TestWriterTracerEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	tr := NewWriterTracer(&buf)
	tr.ReplayStart(ReplayStartEvent{Mechanism: "ignite", Bytes: 128})
	tr.ReplayEnd(ReplayEndEvent{Mechanism: "ignite", Restored: 12})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"event":"replay_start"`) || !strings.Contains(lines[0], `"bytes":128`) {
		t.Errorf("line 0 = %s", lines[0])
	}
}

func TestProgressReporterETA(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressReporter(&buf)
	now := time.Unix(1000, 0)
	p.clock = func() time.Time {
		now = now.Add(2 * time.Second)
		return now
	}
	p.CellDone(CellDoneEvent{Experiment: "fig8", Workload: "A", Config: "nl", Done: 1, Total: 3, Elapsed: 2 * time.Second})
	p.CellDone(CellDoneEvent{Experiment: "fig8", Workload: "A", Config: "ignite", Cached: true, Done: 2, Total: 3})
	p.CellDone(CellDoneEvent{Experiment: "fig8", Workload: "B", Config: "nl", Done: 3, Total: 3, Elapsed: 2 * time.Second})
	out := buf.String()
	if !strings.Contains(out, "[fig8 1/3] A/nl") || !strings.Contains(out, "ETA") {
		t.Errorf("missing progress line or ETA:\n%s", out)
	}
	if strings.Contains(out, "A/ignite") {
		t.Errorf("cache-served cell should not be narrated:\n%s", out)
	}
	if cells, hits := p.Summary(); cells != 3 || hits != 1 {
		t.Errorf("summary = %d cells, %d hits", cells, hits)
	}
}

func TestDocumentRoundTripAndVersionGate(t *testing.T) {
	doc := Document{
		ID:     "fig1",
		Title:  "Figure 1",
		Values: map[string]map[string]float64{"Mean": {"cpi": 1.25}},
		Cells: []CellMetrics{{Workload: "Auth-G", Config: "nl",
			Metrics: map[string]float64{"result.cpi": 1.25}}},
		Manifest: Manifest{Parallel: 4,
			Workloads: []WorkloadManifest{{Name: "Auth-G", Seed: 3, TargetInstr: 1000}}},
	}
	data, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDocument(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SchemaVersion || back.Kind != DocumentKind {
		t.Errorf("encode did not stamp version/kind: %+v", back)
	}
	if !reflect.DeepEqual(back.Values, doc.Values) || !reflect.DeepEqual(back.Cells, doc.Cells) {
		t.Error("round trip lost data")
	}

	// A future schema version must be rejected, not half-read.
	bumped := bytes.Replace(data, []byte(`"schemaVersion": 1`), []byte(`"schemaVersion": 2`), 1)
	if bytes.Equal(bumped, data) {
		t.Fatal("fixture did not contain the version field")
	}
	if _, err := DecodeDocument(bumped); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Errorf("future schema version accepted: %v", err)
	}
}
