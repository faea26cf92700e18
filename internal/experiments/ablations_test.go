package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"ignite/internal/engine"
	"ignite/internal/faults"
	"ignite/internal/ignite"
	"ignite/internal/lukewarm"
	"ignite/internal/memsys"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/stats"
	"ignite/internal/workload"
)

// serialPoint is the loop the ablations ran before they were scheduler
// cells, kept as the reference: for every workload in order, build the
// program and simulate the nl baseline and the point with a direct
// sim.NewWithProgram pair.
func serialPoint(t *testing.T, specs []workload.Spec, base []sim.Option, kind sim.Kind, point ...sim.Option) (speedups []float64, setups []*sim.Setup, results []*lukewarm.Result) {
	t.Helper()
	for _, spec := range specs {
		prog, _, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.NewWithProgram(spec, prog, sim.KindNL, base...)
		if err != nil {
			t.Fatal(err)
		}
		baseRes, err := b.Run(lukewarm.Interleaved)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.NewWithProgram(spec, prog, kind, point...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Run(lukewarm.Interleaved)
		if err != nil {
			t.Fatal(err)
		}
		speedups = append(speedups, baseRes.CPI()/res.CPI())
		setups = append(setups, st)
		results = append(results, res)
	}
	return speedups, setups, results
}

func meanOf(results []*lukewarm.Result, f func(*lukewarm.Result) float64) float64 {
	xs := make([]float64, len(results))
	for i, r := range results {
		xs[i] = f(r)
	}
	return stats.Mean(xs)
}

// serialAblation reproduces abl-throttle, abl-btb or abl-metadata, values
// and table, with the serial reference loop.
func serialAblation(t *testing.T, id ID, specs []workload.Spec) *Result {
	t.Helper()
	r := &Result{ID: id, Title: Title(id)}
	switch id {
	case "abl-throttle":
		r.Table = stats.NewTable(r.Title, "threshold", "speedup over NL", "BTB MPKI", "L1I MPKI")
		for _, thr := range []int{64, 256, 1024, 4096, 1 << 20} {
			sp, _, res := serialPoint(t, specs, nil, sim.KindIgnite, sim.WithTweaks(sim.Tweaks{ThrottleThreshold: thr}))
			label := fmt.Sprintf("%d", thr)
			if thr == 1<<20 {
				label = "unthrottled"
			}
			btb := meanOf(res, (*lukewarm.Result).BTBMPKI)
			r.Table.AddRowf(label, stats.GeoMean(sp), btb, meanOf(res, (*lukewarm.Result).L1IMPKI))
			r.set(label, "speedup", stats.GeoMean(sp))
			r.set(label, "btbmpki", btb)
		}
	case "abl-btb":
		r.Table = stats.NewTable(r.Title, "BTB entries", "config", "speedup over NL", "BTB MPKI")
		for _, entries := range []int{6144, 12288, 24576} {
			for _, kind := range []sim.Kind{sim.KindBoomerangJB, sim.KindIgnite} {
				opts := []sim.Option{sim.WithTweaks(sim.Tweaks{BTBEntries: entries})}
				sp, _, res := serialPoint(t, specs, opts, kind, opts...)
				btb := meanOf(res, (*lukewarm.Result).BTBMPKI)
				r.Table.AddRowf(entries, string(kind), stats.GeoMean(sp), btb)
				r.set(fmt.Sprintf("%d/%s", entries, kind), "speedup", stats.GeoMean(sp))
				r.set(fmt.Sprintf("%d/%s", entries, kind), "btbmpki", btb)
			}
		}
	case "abl-metadata":
		r.Table = stats.NewTable(r.Title, "budget KiB", "speedup over NL", "BTB MPKI", "records dropped")
		for _, kib := range []int{8, 30, 60, 120, 240} {
			sp, setups, res := serialPoint(t, specs, nil, sim.KindIgnite, sim.WithTweaks(sim.Tweaks{MetadataBytes: kib << 10}))
			var dropped []float64
			for _, st := range setups {
				dropped = append(dropped, float64(st.Ignite.Recorder().Dropped))
			}
			btb := meanOf(res, (*lukewarm.Result).BTBMPKI)
			r.Table.AddRowf(kib, stats.GeoMean(sp), btb, stats.Mean(dropped))
			r.set(fmt.Sprintf("%d", kib), "speedup", stats.GeoMean(sp))
			r.set(fmt.Sprintf("%d", kib), "dropped", stats.Mean(dropped))
		}
	case "abl-codec":
		r.Table = stats.NewTable(r.Title,
			"ΔPC bits", "Δtarget bits", "compact %", "bits/record", "metadata KiB")
		spec := specs[0]
		prog, _, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct{ pc, tgt uint }{{4, 12}, {7, 14}, {7, 21}, {10, 21}, {14, 28}, {21, 7}} {
			codec := ignite.CodecConfig{DeltaPCBits: w.pc, DeltaTargetBits: w.tgt, FullAddrBits: 48}
			eng := engine.New(prog, engine.DefaultConfig())
			region := memsys.NewRegion(0, 4<<20)
			rec := ignite.NewRecorder(codec, region, nil)
			rec.Attach(eng.BTB())
			rec.Start()
			eng.Thrash(1)
			if _, err := eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: spec.MaxInstr()}); err != nil {
				t.Fatal(err)
			}
			rec.Stop()
			row := fmt.Sprintf("%d/%d", w.pc, w.tgt)
			bitsPerRec := 0.0
			compactPct := 0.0
			if rec.Records() > 0 {
				bitsPerRec = float64(region.Used()*8) / float64(rec.Records())
				compactPct = float64(rec.CompactRecords()) / float64(rec.Records()) * 100
			}
			r.Table.AddRowf(fmt.Sprintf("%d", w.pc), fmt.Sprintf("%d", w.tgt),
				compactPct, bitsPerRec, float64(region.Used())/1024)
			r.set(row, "bitsPerRecord", bitsPerRec)
			r.set(row, "compactPct", compactPct)
			r.set(row, "metadataKiB", float64(region.Used())/1024)
		}
	default:
		t.Fatalf("no serial reference for %s", id)
	}
	return r
}

// ablationOpts is one quick workload at budget/div: the reference and the
// scheduled runs each simulate every ablation point. At div 4 (56k
// instructions) the 8 KiB metadata point still drops records; tests that
// compare no values shrink further.
func ablationOpts(t *testing.T, div uint64) Options {
	t.Helper()
	opt := quickOpts(t)
	opt.Workloads = opt.Workloads[:1]
	opt.Workloads[0].TargetInstr /= div
	return opt
}

// TestAblationsMatchSerialReference requires the scheduled ablations, the
// codec study's recorder runs included, to reproduce the serial reference
// bit for bit, at one and at four workers, with no cells attached to the
// result.
func TestAblationsMatchSerialReference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every ablation point three times")
	}
	opt := ablationOpts(t, 4)
	for _, id := range []ID{"abl-throttle", "abl-btb", "abl-metadata", "abl-codec"} {
		want := serialAblation(t, id, opt.Workloads)
		if id == "abl-metadata" && want.Get("8", "dropped") == 0 {
			t.Fatal("the 8 KiB point drops no records; the dropped-records path is untested")
		}
		for _, parallel := range []int{1, 4} {
			o := opt
			o.Parallel = parallel
			got, err := Run(context.Background(), id, o)
			if err != nil {
				t.Fatalf("%s at Parallel %d: %v", id, parallel, err)
			}
			if len(got.Cells) != 0 || len(got.Failures) != 0 {
				t.Errorf("%s at Parallel %d: %d cells and %d failures attached, want none",
					id, parallel, len(got.Cells), len(got.Failures))
			}
			if g, w := got.Render(), want.Render(); g != w {
				t.Errorf("%s at Parallel %d: table differs:\n%s\nreference:\n%s", id, parallel, g, w)
			}
			if len(got.Values) != len(want.Values) {
				t.Errorf("%s at Parallel %d: %d value rows, reference has %d", id, parallel, len(got.Values), len(want.Values))
			}
			for row, cols := range want.Values {
				for col, w := range cols {
					if g := got.Values[row][col]; math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("%s at Parallel %d: %s/%s = %v, reference %v", id, parallel, row, col, g, w)
					}
				}
			}
		}
	}
}

// TestAblationsLeaveSharedCacheStats pins the invariant that keeps every
// exported document byte-identical: the ablations run on a call-private
// cache, so adding them to a sweep leaves the shared cache's Stats — and so
// the manifest every document carries — as the figures alone leave them.
func TestAblationsLeaveSharedCacheStats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig8 and three ablations")
	}
	run := func(ids []ID) (cells, hits int) {
		opt := ablationOpts(t, 32)
		opt.Cache = NewCellCache()
		if _, err := RunAll(context.Background(), ids, opt); err != nil {
			t.Fatal(err)
		}
		return opt.Cache.Stats()
	}
	cells, hits := run([]ID{"fig8"})
	withCells, withHits := run([]ID{"fig8", "abl-throttle", "abl-btb", "abl-metadata"})
	if cells == 0 || withCells != cells || withHits != hits {
		t.Errorf("shared cache Stats: fig8 alone %d cells/%d hits, with the ablations %d cells/%d hits",
			cells, hits, withCells, withHits)
	}
}

// TestAblationCellFailureFailsExperiment checks that the ablations' baseline
// cells are fault sites and that one failed cell fails the whole ablation
// with that cell's error under both failure policies: its rows average over
// every workload.
func TestAblationCellFailureFailsExperiment(t *testing.T) {
	opt := ablationOpts(t, 32)
	opt.Retries = -1 // one transient trip fails the cell
	wl := opt.Workloads[0].Name
	for _, site := range []string{"abl-throttle/" + wl + "/nl", "abl-btb/" + wl + "/12288/nl", "abl-metadata/" + wl + "/nl"} {
		for _, policy := range []FailurePolicy{FailFast, ContinueOnError} {
			plan, err := faults.Parse("transient@" + site)
			if err != nil {
				t.Fatal(err)
			}
			o := opt
			o.Faults, o.FailurePolicy = plan, policy
			parts := strings.SplitN(site, "/", 3)
			r, err := Run(context.Background(), ID(parts[0]), o)
			var cerr *CellError
			if r != nil || !errors.As(err, &cerr) || cerr.Config != parts[2] || !faults.IsTransient(cerr) {
				t.Errorf("%s under %v: result %v, err %v; want the injected cell's transient error", site, policy, r, err)
			}
		}
	}
}

// TestAblCodecHonorsMaxCyclesAndChecks pins that the codec study's recorder
// runs are armed like every other cell: a cycle budget far below one
// invocation fails the experiment with the watchdog's error, and the
// invariant verifier audits them without a false alarm.
func TestAblCodecHonorsMaxCyclesAndChecks(t *testing.T) {
	opt := ablationOpts(t, 32)
	o := opt
	o.MaxCycles = 1000
	if _, err := Run(context.Background(), "abl-codec", o); !errors.Is(err, engine.ErrCycleBudget) {
		t.Errorf("abl-codec under a 1000-cycle budget: err %v, want engine.ErrCycleBudget", err)
	}
	o = opt
	o.Checks = true
	if _, err := Run(context.Background(), "abl-codec", o); err != nil {
		t.Errorf("abl-codec with checks: %v", err)
	}
}

// invocationStarts counts every invocation start a tracer sees.
type invocationStarts struct {
	obs.BaseTracer
	n atomic.Int64
}

func (c *invocationStarts) InvocationStart(obs.InvocationStartEvent) { c.n.Add(1) }

// TestAblCodecTraced pins that the codec study runs one engine for all six
// codecs and that the engine reports to the run's tracer, as cell engines
// do: the tracer sees exactly one invocation start.
func TestAblCodecTraced(t *testing.T) {
	opt := ablationOpts(t, 32)
	tr := &invocationStarts{}
	opt.Tracer = tr
	if _, err := Run(context.Background(), "abl-codec", opt); err != nil {
		t.Fatal(err)
	}
	if n := tr.n.Load(); n != 1 {
		t.Errorf("abl-codec: the tracer saw %d invocation starts, want 1", n)
	}
}
