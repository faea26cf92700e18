package experiments

import (
	"context"
	"fmt"
	"strconv"

	"ignite/internal/btb"
	"ignite/internal/check"
	"ignite/internal/engine"
	"ignite/internal/faults"
	"ignite/internal/ignite"
	"ignite/internal/lukewarm"
	"ignite/internal/memsys"
	"ignite/internal/sim"
	"ignite/internal/stats"
)

func init() {
	registry = append(registry,
		regEntry{"abl-codec", "Ablation: metadata delta-field widths (paper footnote 6)", AblCodec},
		regEntry{"abl-throttle", "Ablation: replay throttle threshold (Section 4.2)", AblThrottle},
		regEntry{"abl-btb", "Ablation: BTB capacity (Ice-Lake-class 6K vs Sapphire Rapids 12K)", AblBTB},
		regEntry{"abl-metadata", "Ablation: metadata budget per function", AblMetadata},
	)
}

// AblCodec sweeps the compact-record delta widths and reports bits per
// record — the study behind the paper's footnote 6 claim that 7-bit
// branch-PC and 21-bit target deltas compress best. The recorders are
// passive, so one engine runs the study: one scheduler cell (retry,
// per-cell deadline, MaxCycles watchdog, Checks, Tracer) over the cache's
// program memo feeds every commit-time BTB insertion to one recorder per
// codec, and rows assemble in config order. A failed run fails the
// experiment under either failure policy.
func AblCodec(ctx context.Context, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	configs := []struct{ pc, tgt uint }{
		{4, 12}, {7, 14}, {7, 21}, {10, 21}, {14, 28}, {21, 7},
	}
	// One representative workload is enough for the codec study (and keeps
	// the sweep cheap); use the first selected workload.
	spec := opt.Workloads[0]
	prog, err := opt.Cache.fork().program(spec)
	if err != nil {
		return nil, err
	}
	type codecRow struct{ records, compact, used int }
	rows := make([]codecRow, len(configs))
	sched := newScheduler(ctx, "abl-codec", opt)
	sched.submit(spec.Name, "codecs", func(cctx context.Context, _ int) error {
		if err := opt.Faults.Fire(cctx, faults.Site{Experiment: "abl-codec", Workload: spec.Name, Config: "codecs"}); err != nil {
			return err
		}
		ec := engine.DefaultConfig()
		ec.MaxCycles = opt.MaxCycles
		eng := engine.New(prog, ec)
		eng.SetTracer(opt.Tracer)
		if opt.Checks {
			eng.SetInvocationCheck(check.New(eng).CheckInvocation)
		}
		recs := make([]*ignite.Recorder, len(configs))
		regions := make([]*memsys.Region, len(configs))
		for i, w := range configs {
			codec := ignite.CodecConfig{DeltaPCBits: w.pc, DeltaTargetBits: w.tgt, FullAddrBits: 48}
			regions[i] = memsys.NewRegion(0, 4<<20) // unbounded for the study
			recs[i] = ignite.NewRecorder(codec, regions[i], nil)
			recs[i].Start()
		}
		eng.BTB().OnInsert(func(e btb.Entry) {
			for _, rec := range recs {
				rec.OnBTBInsert(e)
			}
		})
		eng.Thrash(1)
		if _, err := eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: spec.MaxInstr()}); err != nil {
			return err
		}
		for i, rec := range recs {
			rec.Stop()
			rows[i] = codecRow{rec.Records(), rec.CompactRecords(), regions[i].Used()}
		}
		return nil
	})
	if err := joinOutcomes(sched.wait(), ctx.Err()); err != nil {
		return nil, err
	}
	r := &Result{ID: "abl-codec", Title: Title("abl-codec")}
	t := stats.NewTable(r.Title,
		"ΔPC bits", "Δtarget bits", "compact %", "bits/record", "metadata KiB")
	for i, w := range configs {
		row, c := fmt.Sprintf("%d/%d", w.pc, w.tgt), rows[i]
		bitsPerRec := 0.0
		compactPct := 0.0
		if c.records > 0 {
			bitsPerRec = float64(c.used*8) / float64(c.records)
			compactPct = float64(c.compact) / float64(c.records) * 100
		}
		kib := float64(c.used) / 1024
		t.AddRowf(fmt.Sprintf("%d", w.pc), fmt.Sprintf("%d", w.tgt), compactPct, bitsPerRec, kib)
		r.set(row, "bitsPerRecord", bitsPerRec)
		r.set(row, "compactPct", compactPct)
		r.set(row, "metadataKiB", kib)
	}
	r.Table = t
	return r, nil
}

// ablationMatrix runs an ablation's points as scheduler cells, Parallel-wide,
// through a fork of the run's cache: the cells reuse the figures' programs
// and traces, load from and save to the store, and ship to the remote
// workers like figure cells, while the shared cache's Stats — and so every
// exported manifest — never see them. An ablation row averages over every
// workload, so a failed cell fails the experiment under either failure
// policy.
func ablationMatrix(ctx context.Context, id ID, opt Options, configs []runConfig) (*matrix, error) {
	opt.Cache = opt.Cache.fork()
	m, err := runMatrix(ctx, id, opt, configs)
	if err != nil {
		return nil, err
	}
	if err := joinOutcomes(m.outcomes, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// AblThrottle sweeps the replay throttle threshold: too low starves the
// restore, too high lets replay thrash the BTB ahead of use.
func AblThrottle(ctx context.Context, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	configs := []runConfig{{Name: "nl", Kind: sim.KindNL, Mode: lukewarm.Interleaved}}
	for _, thr := range []int{64, 256, 1024, 4096, 1 << 20} {
		configs = append(configs, runConfig{Name: strconv.Itoa(thr), Kind: sim.KindIgnite,
			Tweak: sim.Tweaks{ThrottleThreshold: thr}, Mode: lukewarm.Interleaved})
	}
	m, err := ablationMatrix(ctx, "abl-throttle", opt, configs)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "abl-throttle", Title: Title("abl-throttle")}
	t := stats.NewTable(r.Title, "threshold", "speedup over NL", "BTB MPKI", "L1I MPKI")
	for _, rc := range configs[1:] {
		var speedups, btbs, l1s []float64
		for _, spec := range opt.Workloads {
			row := m.cells[spec.Name]
			res := row[rc.Name].Res
			speedups = append(speedups, row["nl"].Res.CPI()/res.CPI())
			btbs = append(btbs, res.BTBMPKI())
			l1s = append(l1s, res.L1IMPKI())
		}
		label := rc.Name
		if rc.Tweak.ThrottleThreshold == 1<<20 {
			label = "unthrottled"
		}
		t.AddRowf(label, stats.GeoMean(speedups), stats.Mean(btbs), stats.Mean(l1s))
		r.set(label, "speedup", stats.GeoMean(speedups))
		r.set(label, "btbmpki", stats.Mean(btbs))
	}
	r.Table = t
	return r, nil
}

// AblBTB compares Ice Lake's 5K-entry BTB against the modeled 12K-entry
// Sapphire Rapids BTB (the paper states the overall trends are unaffected).
func AblBTB(ctx context.Context, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	sizes := []int{6144, 12288, 24576} // 6-way: sets must be a power of two
	kinds := []sim.Kind{sim.KindBoomerangJB, sim.KindIgnite}
	var configs []runConfig
	for _, entries := range sizes {
		for _, kind := range append([]sim.Kind{sim.KindNL}, kinds...) {
			configs = append(configs, runConfig{Name: fmt.Sprintf("%d/%s", entries, kind), Kind: kind,
				Tweak: sim.Tweaks{BTBEntries: entries}, Mode: lukewarm.Interleaved})
		}
	}
	m, err := ablationMatrix(ctx, "abl-btb", opt, configs)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "abl-btb", Title: Title("abl-btb")}
	t := stats.NewTable(r.Title, "BTB entries", "config", "speedup over NL", "BTB MPKI")
	for _, entries := range sizes {
		for _, kind := range kinds {
			base, name := fmt.Sprintf("%d/%s", entries, sim.KindNL), fmt.Sprintf("%d/%s", entries, kind)
			var speedups, btbs []float64
			for _, spec := range opt.Workloads {
				row := m.cells[spec.Name]
				res := row[name].Res
				speedups = append(speedups, row[base].Res.CPI()/res.CPI())
				btbs = append(btbs, res.BTBMPKI())
			}
			t.AddRowf(entries, string(kind), stats.GeoMean(speedups), stats.Mean(btbs))
			r.set(name, "speedup", stats.GeoMean(speedups))
			r.set(name, "btbmpki", stats.Mean(btbs))
		}
	}
	r.Table = t
	return r, nil
}

// AblMetadata sweeps Ignite's per-function metadata budget (the paper caps
// it at 120 KiB).
func AblMetadata(ctx context.Context, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	configs := []runConfig{{Name: "nl", Kind: sim.KindNL, Mode: lukewarm.Interleaved}}
	for _, kib := range []int{8, 30, 60, 120, 240} {
		configs = append(configs, runConfig{Name: strconv.Itoa(kib), Kind: sim.KindIgnite,
			Tweak: sim.Tweaks{MetadataBytes: kib << 10}, Mode: lukewarm.Interleaved})
	}
	m, err := ablationMatrix(ctx, "abl-metadata", opt, configs)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "abl-metadata", Title: Title("abl-metadata")}
	t := stats.NewTable(r.Title, "budget KiB", "speedup over NL", "BTB MPKI", "records dropped")
	for _, rc := range configs[1:] {
		var speedups, btbs, dropped []float64
		for _, spec := range opt.Workloads {
			row := m.cells[spec.Name]
			c := row[rc.Name]
			speedups = append(speedups, row["nl"].Res.CPI()/c.Res.CPI())
			btbs = append(btbs, c.Res.BTBMPKI())
			dropped = append(dropped, c.Metrics[mDroppedRecords])
		}
		t.AddRowf(rc.Tweak.MetadataBytes>>10, stats.GeoMean(speedups), stats.Mean(btbs), stats.Mean(dropped))
		r.set(rc.Name, "speedup", stats.GeoMean(speedups))
		r.set(rc.Name, "dropped", stats.Mean(dropped))
	}
	r.Table = t
	return r, nil
}
