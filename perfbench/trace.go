package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ignite/internal/cfg"
	"ignite/internal/experiments"
	"ignite/internal/obs"
	"ignite/internal/store"
	"ignite/internal/workload"
)

// span is one timed interval of the traced run. Parent 0 is the run itself.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer is the traced run's obs.Tracer. It wall-stamps cell events into
// spans, counts invocation and replay events, and collects the timings the
// benchmark takes around its own calls into each layer. Spans stay in
// memory until finish writes them out.
type tracer struct {
	obs.BaseTracer
	t0  time.Time
	dir string // where spans, the CPU profile and its folding are written

	mu     sync.Mutex
	spans  []span
	parent int // span that library events (cells, store calls) attach to

	invocations, instrs uint64
	replays, replayB    int
	fresh, cached       int
	cellMs              []float64
	calls               map[string][]float64 // ms per observed call, by layer call name
	payloadKiB          []float64
	work                map[string]float64 // work counts summed over fresh cells
	phaseS              map[string][]float64
	phaseUtil           map[string][]float64
}

func newTracer(dir string) *tracer {
	return &tracer{
		t0:        time.Now(),
		dir:       dir,
		calls:     make(map[string][]float64),
		work:      make(map[string]float64),
		phaseS:    make(map[string][]float64),
		phaseUtil: make(map[string][]float64),
	}
}

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

func (t *tracer) setParent(id int) {
	t.mu.Lock()
	t.parent = id
	t.mu.Unlock()
}

// observe records one call into a layer as a span under the current parent
// and as a latency sample.
func (t *tracer) observe(name string, start, end time.Time) {
	t.mu.Lock()
	parent := t.parent
	t.calls[name] = append(t.calls[name], ms(end.Sub(start)))
	t.mu.Unlock()
	t.add(name, parent, start, end)
}

func (t *tracer) InvocationEnd(e obs.InvocationEndEvent) {
	t.mu.Lock()
	t.invocations++
	t.instrs += e.Instrs
	t.mu.Unlock()
}

func (t *tracer) ReplayStart(e obs.ReplayStartEvent) {
	t.mu.Lock()
	t.replays++
	t.replayB += e.Bytes
	t.mu.Unlock()
}

func (t *tracer) CellDone(e obs.CellDoneEvent) {
	now := time.Now()
	t.mu.Lock()
	parent := t.parent
	if e.Cached {
		t.cached++
	} else {
		t.fresh++
		t.cellMs = append(t.cellMs, ms(e.Elapsed))
	}
	t.mu.Unlock()
	t.add("cell:"+e.Experiment+"/"+e.Workload+"/"+e.Config, parent, now.Add(-e.Elapsed), now)
}

// resetCounts drops what set-up recorded, so counts cover the measured
// window only.
func (t *tracer) resetCounts() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.invocations, t.instrs, t.replays, t.replayB, t.fresh, t.cached = 0, 0, 0, 0, 0, 0
	t.cellMs, t.payloadKiB = nil, nil
	t.calls = make(map[string][]float64)
	t.work = make(map[string]float64)
}

// countWork adds a fresh cell's work counts (summed over label sets).
func (t *tracer) countWork(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, v := range m {
		name, _, _ := strings.Cut(key, "{")
		switch name {
		case "btb.lookups", "cache.accesses", "itlb.lookups":
			t.work[name] += v
		}
	}
}

// runAll is experiments.RunAll split into one call per experiment over the
// same cache, so each experiment gets a span and the figure, ablation and
// fleet phases get their own wall and CPU time. RunAll runs experiments
// one after another, so the split does the same work.
func (t *tracer) runAll(ctx context.Context, ids []experiments.ID, opt experiments.Options,
	phase string) ([]*experiments.Result, error) {
	ps := t.begin(phase+"-sweep", 0)
	defer t.end(ps)
	wall := make(map[string]float64)
	cpu := make(map[string]float64)
	var out []*experiments.Result
	for _, id := range ids {
		es := t.begin("experiment:"+string(id), ps)
		t.setParent(es)
		c0, w0 := processCPU(), time.Now()
		res, err := experiments.RunAll(ctx, []experiments.ID{id}, opt)
		class := phaseClass(id)
		wall[class] += time.Since(w0).Seconds()
		cpu[class] += processCPU() - c0
		t.end(es)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	t.setParent(0)
	if phase == "cold" {
		t.mu.Lock()
		for class, s := range wall {
			t.phaseS[class] = append(t.phaseS[class], s)
			if s > 0 {
				t.phaseUtil[class] = append(t.phaseUtil[class], cpu[class]/(s*float64(runtime.GOMAXPROCS(0))))
			}
		}
		t.mu.Unlock()
	}
	return out, nil
}

func phaseClass(id experiments.ID) string {
	switch {
	case strings.HasPrefix(string(id), "abl-"):
		return "ablations"
	case strings.HasPrefix(string(id), "fleet-"):
		return "fleet"
	default:
		return "figures"
	}
}

// sweepLayers reports the traced sweep's layer metrics; counts are per
// cold-sweep-plus-rerun pair.
func (t *tracer) sweepLayers(r *run, pairs int) {
	for _, class := range []string{"figures", "ablations", "fleet"} {
		r.set("experiments."+class+"_s", median(t.phaseS[class]))
	}
	r.set("experiments.figures_cpu_util", median(t.phaseUtil["figures"]))
	r.set("experiments.ablations_cpu_util", median(t.phaseUtil["ablations"]))
	r.set("experiments.cells", float64(t.fresh)/float64(pairs))
	r.set("experiments.cell_hits", float64(t.cached)/float64(pairs))
	r.set("experiments.cell_p50_ms", median(t.cellMs))
	r.set("experiments.cell_max_ms", quantile(t.cellMs, 1))
	t.engineLayers(r, pairs)
	for _, name := range []string{"btb.lookups", "cache.accesses", "itlb.lookups"} {
		r.set(name, t.work[name]/float64(pairs))
	}
	r.set("store.puts", float64(len(t.calls["store.put"]))/float64(pairs))
	r.set("store.gets", float64(len(t.calls["store.get"]))/float64(pairs))
	r.set("store.put_p50_ms", median(t.calls["store.put"]))
	r.set("store.get_p50_ms", median(t.calls["store.get"]))
	r.set("payload.encode_p50_ms", median(t.calls["payload.encode"]))
	r.set("payload.decode_p50_ms", median(t.calls["payload.decode"]))
	r.set("payload.kib_p50", median(t.payloadKiB))
}

// engineLayers reports the simulation core's event counts, divided by the
// number of repetitions the run made of its work.
func (t *tracer) engineLayers(r *run, reps int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.set("engine.invocations", float64(t.invocations)/float64(reps))
	r.set("engine.minstr", float64(t.instrs)/1e6/float64(reps))
	if r.windowCPU > 0 {
		r.set("engine.minstr_per_cpu_s", float64(t.instrs)/1e6/r.windowCPU)
	}
	r.set("ignite.replays", float64(t.replays)/float64(reps))
	if t.replays > 0 {
		r.set("ignite.replay_kib", float64(t.replayB)/1024/float64(t.replays))
	}
}

// generatorLayers times program generation (workload.Spec.Build) and the
// committed-path walk (cfg.Program.Walk) on the workload's own functions,
// outside the measured window.
func (t *tracer) generatorLayers(r *run, specs []workload.Spec) error {
	var gen []float64
	var instrs uint64
	var walk time.Duration
	for _, s := range specs {
		start := time.Now()
		prog, _, err := s.Build()
		if err != nil {
			return err
		}
		gen = append(gen, ms(time.Since(start)))
		start = time.Now()
		res, err := prog.Walk(0, cfg.WalkOptions{Seed: s.Gen.Seed, MaxInstr: s.MaxInstr()},
			func(cfg.Step) bool { return true })
		if err != nil {
			return err
		}
		walk += time.Since(start)
		instrs += res.Instrs
	}
	r.set("cfg.generate_ms", median(gen))
	if walk > 0 {
		r.set("cfg.walk_minstr_per_s", float64(instrs)/1e6/walk.Seconds())
	}
	return nil
}

// finish writes the spans out and reports their count.
func (t *tracer) finish(r *run) error {
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	path := filepath.Join(t.dir, "spans.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	r.set("trace.spans", float64(len(t.spans)))
	r.printf("spans %d written to %s", len(t.spans), path)
	return nil
}

// timedBacking is experiments' store binding (BindStore) with every store
// call and payload codec timed: the same Get/Unmarshal on load and
// Marshal/Put on save, the same treatment of unreadable records as misses.
type timedBacking struct {
	st *store.Store
	tr *tracer
}

func (b *timedBacking) Load(key string) (experiments.CellPayload, bool) {
	start := time.Now()
	data, err := b.st.Get(key)
	got := time.Now()
	b.tr.observe("store.get", start, got)
	if err != nil {
		return experiments.CellPayload{}, false
	}
	var p experiments.CellPayload
	err = json.Unmarshal(data, &p)
	b.tr.observe("payload.decode", got, time.Now())
	if err != nil || p.Res == nil {
		return experiments.CellPayload{}, false
	}
	return p, true
}

func (b *timedBacking) Save(key string, p experiments.CellPayload) {
	b.tr.countWork(p.Metrics)
	start := time.Now()
	data, err := json.Marshal(p)
	encoded := time.Now()
	b.tr.observe("payload.encode", start, encoded)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode cell %q: %v\n", key, err)
		return
	}
	if err := b.st.Put(key, data); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	b.tr.observe("store.put", encoded, time.Now())
	b.tr.mu.Lock()
	b.tr.payloadKiB = append(b.tr.payloadKiB, float64(len(data))/1024)
	b.tr.mu.Unlock()
}

// cpuShares folds a CPU profile by layer with `go tool pprof -traces`:
// each sample goes to the runtime's collector or allocator when its leaf
// frame is there, else to the innermost frame of a known layer (so a
// standard-library helper counts for the layer that called it), else to
// cpu.other. It returns each layer's share of all samples and keeps the
// tool's flat listing beside the profile.
func cpuShares(profile string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	traces, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	top, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top: %w", err)
	}
	if err := os.WriteFile(strings.TrimSuffix(profile, ".pprof")+"-top.txt", top, 0o644); err != nil {
		return nil, err
	}
	shares := make(map[string]float64)
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "cpu.") {
			shares[d.Name] = 0
		}
	}
	var total float64
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			shares[sampleLayer(frames)] += value.Seconds()
			total += value.Seconds()
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(line, " ") {
			continue // header
		}
		if d, err := time.ParseDuration(f[0]); err == nil && len(f) > 1 {
			flush()
			value, f = d, f[1:]
		}
		frames = append(frames, f[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// layerOf maps a package path onto its cpu.* metric.
var layerOf = map[string]string{
	"ignite/internal/bpred":       "cpu.bpred",
	"ignite/internal/cache":       "cpu.cache",
	"ignite/internal/btb":         "cpu.btb",
	"ignite/internal/tlb":         "cpu.tlb",
	"ignite/internal/engine":      "cpu.engine",
	"ignite/internal/memsys":      "cpu.memsys",
	"ignite/internal/ignite":      "cpu.ignite",
	"ignite/internal/prefetch":    "cpu.prefetch",
	"ignite/internal/cfg":         "cpu.cfg",
	"ignite/internal/workload":    "cpu.cfg",
	"ignite/internal/experiments": "cpu.experiments",
	"ignite/internal/lukewarm":    "cpu.experiments",
	"ignite/internal/sim":         "cpu.experiments",
	"ignite/internal/stats":       "cpu.experiments",
	"ignite/internal/fleet":       "cpu.fleet",
	"ignite/internal/loadgen":     "cpu.fleet",
	"ignite/internal/store":       "cpu.store",
	"ignite/internal/serve":       "cpu.serve",
	"net":                         "cpu.net",
	"net/http":                    "cpu.net",
	"net/textproto":               "cpu.net",
	"encoding/json":               "cpu.json",
}

// sampleLayer classifies one profile sample by its stack, leaf first.
func sampleLayer(frames []string) string {
	if pkg, name := splitFunc(frames[0]); pkg == "runtime" {
		switch {
		case strings.HasPrefix(name, "gc"), strings.Contains(name, "scan"),
			strings.Contains(name, "mark"), strings.Contains(name, "sweep"),
			strings.Contains(name, "greyobject"), strings.Contains(name, "findObject"),
			strings.Contains(name, "wbBuf"):
			return "cpu.runtime_gc"
		case strings.Contains(name, "malloc"), strings.Contains(name, "memclr"),
			strings.Contains(name, "memmove"), strings.Contains(name, "newobject"),
			strings.Contains(name, "makeslice"), strings.Contains(name, "growslice"),
			strings.Contains(name, "mcache"), strings.Contains(name, "mcentral"),
			strings.Contains(name, "mheap"), strings.Contains(name, "nextFree"):
			return "cpu.runtime_mem"
		}
	}
	for _, fn := range frames {
		pkg, _ := splitFunc(fn)
		for p := pkg; p != "."; p = filepath.Dir(p) {
			if l, ok := layerOf[p]; ok {
				return l
			}
		}
	}
	return "cpu.other"
}

// splitFunc splits a profiled function name into its package path and the
// rest, e.g. "ignite/internal/btb.(*BTB).Lookup" into
// "ignite/internal/btb" and "(*BTB).Lookup".
func splitFunc(fn string) (pkg, name string) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	pkg, name, _ = strings.Cut(fn, ".")
	return dir + pkg, name
}
