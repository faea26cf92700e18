package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// decl declares one metric the benchmark emits; BENCHMARK.json lists the
// same names and units (TestMetricNamesDeclared keeps the two in step).
type decl struct{ Name, Unit string }

// endToEnd are the user-visible metrics every workload reports untraced.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"cold_p50_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"retained_mb", "MB"},
}

// perLayer are the traced run's metrics, named after the repository's
// modules. A layer a workload does not reach reports 0.
var perLayer = []decl{
	{"experiments.figures_s", "s"},
	{"experiments.ablations_s", "s"},
	{"experiments.fleet_s", "s"},
	{"experiments.figures_cpu_util", "ratio"},
	{"experiments.ablations_cpu_util", "ratio"},
	{"experiments.cells", "count"},
	{"experiments.cell_hits", "count"},
	{"experiments.cell_p50_ms", "ms"},
	{"experiments.cell_max_ms", "ms"},
	{"engine.invocations", "count"},
	{"engine.minstr", "Minstr"},
	{"engine.minstr_per_cpu_s", "Minstr/s"},
	{"ignite.replays", "count"},
	{"ignite.replay_kib", "KiB"},
	{"itlb.lookups", "count"},
	{"btb.lookups", "count"},
	{"cache.accesses", "count"},
	{"cfg.generate_ms", "ms"},
	{"cfg.walk_minstr_per_s", "Minstr/s"},
	{"store.puts", "count"},
	{"store.gets", "count"},
	{"store.put_p50_ms", "ms"},
	{"store.get_p50_ms", "ms"},
	{"payload.encode_p50_ms", "ms"},
	{"payload.decode_p50_ms", "ms"},
	{"payload.kib_p50", "KiB"},
	{"serve.requests", "count"},
	{"serve.fast_path_hits", "count"},
	{"serve.batches", "count"},
	{"serve.batched_requests", "count"},
	{"serve.coalescing_ratio", "ratio"},
	{"serve.cell_cache_hits", "count"},
	{"serve.shed", "count"},
	{"client.p99_ms", "ms"},
	{"client.queue_p50_ms", "ms"},
	{"client.svc_p50_us", "us"},
	{"client.svc_p99_us", "us"},
	{"client.cold_svc_p50_ms", "ms"},
	{"client.lag_p50_ms", "ms"},
	{"client.lag_p99_ms", "ms"},
	{"proc.cpu_util", "ratio"},
	{"proc.cpu_us_per_req", "us"},
	{"proc.gc_cpu_frac", "ratio"},
	{"proc.max_rss_mb", "MB"},
	{"retained.mb_per_cell", "MB"},
	{"cpu.bpred", "ratio"},
	{"cpu.cache", "ratio"},
	{"cpu.btb", "ratio"},
	{"cpu.tlb", "ratio"},
	{"cpu.engine", "ratio"},
	{"cpu.memsys", "ratio"},
	{"cpu.ignite", "ratio"},
	{"cpu.prefetch", "ratio"},
	{"cpu.cfg", "ratio"},
	{"cpu.experiments", "ratio"},
	{"cpu.fleet", "ratio"},
	{"cpu.store", "ratio"},
	{"cpu.serve", "ratio"},
	{"cpu.net", "ratio"},
	{"cpu.json", "ratio"},
	{"cpu.runtime_gc", "ratio"},
	{"cpu.runtime_mem", "ratio"},
	{"cpu.other", "ratio"},
	{"trace.spans", "count"},
}

// runConfig is one benchmark invocation.
type runConfig struct {
	Workload  string
	Seed      uint64
	Window    time.Duration
	Traced    bool
	Artifacts string
	Sweep     sweepParams
	Hot       hotParams
	Fleet     fleetParams
}

// run is the state one workload fills in while it executes.
type run struct {
	cfg    runConfig
	tmp    string  // scratch directory, removed at exit
	tr     *tracer // nil when untraced
	values map[string]float64
	lines  []string // human-readable lines printed before the result
	// attempted and failed count the measured operations (sweeps or
	// requests); problems lists every failed correctness check.
	attempted, failed int
	problems          []string
	windowCPU         float64 // process CPU-seconds spent in the measured window
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(context.Context, *run) error{
	"sweep":       runSweep,
	"serve-hot":   runHot,
	"serve-fleet": runFleet,
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// span records a span in a traced run and returns its id (0 untraced).
func (r *run) span(name string, parent int, start, end time.Time) int {
	if r.tr == nil {
		return 0
	}
	return r.tr.add(name, parent, start, end)
}

// timing records a timing metric with its sample count.
func (r *run) timing(name string, v float64, n int) {
	r.set(name, v)
	r.printf("samples %s n=%d", name, n)
}

func (r *run) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *run) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// phase records the operation counts of one phase of the run.
func (r *run) phase(name string, sent, ok int) {
	r.printf("phase %s sent=%d ok=%d failed=%d", name, sent, ok, sent-ok)
	r.attempted += sent
	r.failed += sent - ok
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// correct reports whether every output check passed and at least one
// operation was measured.
func (r *run) correct() bool { return len(r.problems) == 0 && r.attempted > 0 }

// result is the final JSON line: the end-to-end metrics untraced, the
// per-layer metrics traced.
func (r *run) result() resultJSON {
	set := endToEnd
	if r.cfg.Traced {
		set = perLayer
	}
	out := resultJSON{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricJSON, len(set))}
	for _, d := range set {
		out.Metrics[d.Name] = metricJSON{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}

// execute runs one workload. An error means the run could not be carried
// out at all, as opposed to a wrong result, which the run records.
func execute(ctx context.Context, cfg runConfig) (*run, error) {
	drive, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err := os.MkdirAll(cfg.Artifacts, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.Artifacts, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{cfg: cfg, tmp: tmp, values: make(map[string]float64)}
	r.printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s membw=%.1fGB/s", cpuModel(), runtime.NumCPU(),
		runtime.GOMAXPROCS(0), runtime.Version(), memBandwidth())
	r.printf("run workload=%s seed=%d seconds=%g traced=%v", cfg.Workload, cfg.Seed,
		cfg.Window.Seconds(), cfg.Traced)
	if cfg.Traced {
		r.tr = newTracer(filepath.Join(cfg.Artifacts, "trace", fmt.Sprintf("%s-seed%d", cfg.Workload, cfg.Seed)))
	}
	if err := drive(ctx, r); err != nil {
		return nil, err
	}
	if r.tr != nil {
		if err := r.tr.finish(r); err != nil {
			return nil, err
		}
	}
	if r.attempted < 1 {
		r.problemf("no operation completed inside the window")
	}
	printed := endToEnd
	if cfg.Traced {
		printed = append(append([]decl(nil), endToEnd...), perLayer...)
	}
	for _, d := range printed {
		r.printf("%s %.6g %s", d.Name, r.values[d.Name], d.Unit)
	}
	return r, nil
}

// window tracks process resource use across a measured window: CPU time,
// GC CPU, and (when traced) a CPU profile.
type window struct {
	start   time.Time
	cpu     float64
	gc, all float64
	prof    *os.File
}

func (r *run) openWindow() (*window, error) {
	w := &window{}
	if r.tr != nil {
		r.tr.resetCounts()
		if err := os.MkdirAll(r.tr.dir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(r.tr.dir, "cpu.pprof"))
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		w.prof = f
	}
	w.gc, w.all = gcCPU()
	w.cpu = processCPU()
	w.start = time.Now()
	return w, nil
}

// closeWindow records the window's process-level metrics and, when traced,
// folds the CPU profile into per-layer shares. ops normalizes CPU per
// request (0 for the sweep).
func (r *run) closeWindow(w *window, ops int) error {
	wall := time.Since(w.start).Seconds()
	cpu := processCPU() - w.cpu
	r.windowCPU = cpu
	gc, all := gcCPU()
	r.set("proc.cpu_util", cpu/(wall*float64(runtime.GOMAXPROCS(0))))
	if ops > 0 {
		r.set("proc.cpu_us_per_req", cpu/float64(ops)*1e6)
	}
	if all-w.all > 0 {
		r.set("proc.gc_cpu_frac", (gc-w.gc)/(all-w.all))
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.set("proc.max_rss_mb", float64(ru.Maxrss)*1024/1e6)
	}
	if w.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if err := w.prof.Close(); err != nil {
		return err
	}
	shares, err := cpuShares(w.prof.Name())
	if err != nil {
		return err
	}
	for name, v := range shares {
		r.set(name, v)
	}
	return nil
}

// retainedMB is the live heap after a forced collection, in MB.
func retainedMB() float64 {
	// Two cycles: the first moves sync.Pool contents to the victim cache,
	// the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// memBandwidth is the median rate, in GB/s, of five passes writing a 64 MB
// buffer. Neighbours on a shared host move it, and every memory-bound timing
// with it, so each run records it beside the host stamp.
func memBandwidth() float64 {
	buf := make([]uint64, 8<<20)
	var rates []float64
	for k := 0; k < 5; k++ {
		start := time.Now()
		for i := range buf {
			buf[i] = uint64(k)
		}
		rates = append(rates, float64(len(buf)*8)/time.Since(start).Seconds()/1e9)
	}
	return median(rates)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// quantile returns the q-quantile of xs (0 for an empty slice), linearly
// interpolated between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
