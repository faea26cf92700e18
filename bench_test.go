// Package bench provides one testing.B benchmark per paper table/figure.
// Each benchmark regenerates its experiment on a reduced workload set (two
// functions, halved invocations) and reports the experiment's headline
// numbers as custom benchmark metrics, so `go test -bench=. -benchmem`
// doubles as a quick reproduction run. Use cmd/ignite-bench for the
// full-scale versions over all 20 functions.
package bench

import (
	"context"
	"runtime"
	"testing"

	"ignite/internal/experiments"
	"ignite/internal/workload"
)

func benchOpts(b *testing.B) experiments.Options {
	b.Helper()
	var specs []workload.Spec
	for _, name := range []string{"Auth-G", "Curr-N"} {
		s, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		s.TargetInstr /= 2
		specs = append(specs, s)
	}
	return experiments.Options{Workloads: specs, Parallel: 2}
}

func runExperiment(b *testing.B, id experiments.ID, metrics func(*experiments.Result, *testing.B)) {
	b.Helper()
	opt := benchOpts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(context.Background(), id, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && metrics != nil {
			metrics(res, b)
		}
	}
}

// BenchmarkRunAll times the complete all-figures reproduction (the 15 paper
// tables/figures) on the bench subset through the cell scheduler with a
// shared cell cache — the path cmd/ignite-bench -exp all takes.
func BenchmarkRunAll(b *testing.B) {
	opt := benchOpts(b)
	opt.Parallel = runtime.NumCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh cache per iteration: reuse happens within one
		// all-figures run, never across benchmark iterations.
		opt.Cache = experiments.NewCellCache()
		if _, err := experiments.RunAll(context.Background(), experiments.PaperIDs(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "tab1", nil)
}

func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "tab2", nil)
}

func BenchmarkFig1(b *testing.B) {
	runExperiment(b, "fig1", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "degradationPct"), "CPI-degradation-%")
		b.ReportMetric(r.Get("Mean", "frontendShare")*100, "frontend-share-%")
	})
}

func BenchmarkFig2(b *testing.B) {
	runExperiment(b, "fig2", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "instrKiB"), "instr-WS-KiB")
		b.ReportMetric(r.Get("Mean", "btbEntries"), "branch-WS-entries")
	})
}

func BenchmarkFig3(b *testing.B) {
	runExperiment(b, "fig3", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "jukebox/speedup"), "jukebox-speedup")
		b.ReportMetric(r.Get("Mean", "boomerang+jb/speedup"), "boomerang+jb-speedup")
		b.ReportMetric(r.Get("Mean", "ideal/speedup"), "ideal-speedup")
	})
}

func BenchmarkFig4(b *testing.B) {
	runExperiment(b, "fig4", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "+warm-btb/speedup"), "warm-btb-speedup")
		b.ReportMetric(r.Get("Mean", "+warm-cbp/speedup"), "warm-cbp-speedup")
	})
}

func BenchmarkFig5(b *testing.B) {
	runExperiment(b, "fig5", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "+bim-warm/cbpmpki"), "bim-warm-CBP-MPKI")
		b.ReportMetric(r.Get("Mean", "+tage-warm/cbpmpki"), "tage-warm-CBP-MPKI")
	})
}

func BenchmarkFig6(b *testing.B) {
	runExperiment(b, "fig6", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "sharePct"), "initial-mispredict-%")
	})
}

func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "fig8", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "ignite/speedup"), "ignite-speedup")
		b.ReportMetric(r.Get("Mean", "ignite+tage/speedup"), "ignite+tage-speedup")
		b.ReportMetric(r.Get("Mean", "ideal/speedup"), "ideal-speedup")
	})
}

func BenchmarkFig9a(b *testing.B) {
	runExperiment(b, "fig9a", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "ignite/l1impki"), "ignite-L1I-MPKI")
		b.ReportMetric(r.Get("Mean", "ignite/btbmpki"), "ignite-BTB-MPKI")
		b.ReportMetric(r.Get("Mean", "ignite/cbpmpki"), "ignite-CBP-MPKI")
	})
}

func BenchmarkFig9b(b *testing.B) {
	runExperiment(b, "fig9b", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "coveredPct"), "initial-covered-%")
	})
}

func BenchmarkFig9c(b *testing.B) {
	runExperiment(b, "fig9c", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "l2OverPct"), "L2-overpredicted-%")
		b.ReportMetric(r.Get("Mean", "btbOverPct"), "BTB-overpredicted-%")
		b.ReportMetric(r.Get("Mean", "cbpInducedPct"), "CBP-induced-%")
	})
}

func BenchmarkFig10(b *testing.B) {
	runExperiment(b, "fig10", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("nl", "uselessKiB"), "nl-useless-KiB")
		b.ReportMetric(r.Get("ignite", "totalKiB"), "ignite-total-KiB")
	})
}

func BenchmarkFig11(b *testing.B) {
	runExperiment(b, "fig11", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "bim-wt/speedup"), "weakly-taken-speedup")
		b.ReportMetric(r.Get("Mean", "bim-wnt/speedup"), "weakly-not-taken-speedup")
	})
}

func BenchmarkFig12(b *testing.B) {
	runExperiment(b, "fig12", func(r *experiments.Result, b *testing.B) {
		b.ReportMetric(r.Get("Mean", "confluence/speedup"), "confluence-speedup")
		b.ReportMetric(r.Get("Mean", "confluence+ignite/speedup"), "confluence+ignite-speedup")
		b.ReportMetric(r.Get("Mean", "fdp+ignite/speedup"), "fdp+ignite-speedup")
	})
}
