package cfg_test

import (
	"testing"

	"ignite/internal/cfg"
	"ignite/internal/fleet/population"
	"ignite/internal/lukewarm"
	"ignite/internal/workload"
)

// sinkProgram keeps the benchmarked result alive.
var sinkProgram *cfg.Program

// BenchmarkGenerate builds one program per iteration: the Table-1 Auth-G
// and the first standard-flavor function of the seed-1 sampled population,
// the kind of program a fleet daemon generates on every cold function.
// B/op counts everything one build allocates, the returned program included.
func BenchmarkGenerate(b *testing.B) {
	auth, err := workload.ByName("Auth-G")
	if err != nil {
		b.Fatal(err)
	}
	fns, err := population.Sample(population.Params{Seed: 1, N: 20})
	if err != nil {
		b.Fatal(err)
	}
	var std *workload.Spec
	for i := range fns {
		if fns[i].Flavor == population.Standard {
			std = &fns[i].Spec
			break
		}
	}
	if std == nil {
		b.Fatal("no standard-flavor function among the first 20 sampled")
	}
	for _, spec := range []workload.Spec{auth, *std} {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, _, err := cfg.Generate(spec.Gen)
				if err != nil {
					b.Fatal(err)
				}
				sinkProgram = p
			}
		})
	}
}

// BenchmarkWalk walks the Table-1 Auth-G and AES-P programs at their Table-1
// budgets, over the six invocation seeds the lukewarm protocol walks, reusing
// one WalkScratch: the committed-trace walk every cold cell pays. Minstr/s is
// the walker's throughput over all six walks.
func BenchmarkWalk(b *testing.B) {
	for _, name := range []string{"Auth-G", "AES-P"} {
		spec, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog, _, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var scratch cfg.WalkScratch
			emit := func(cfg.Step) bool { return true }
			walk := func(seed uint64) uint64 {
				res, err := prog.Walk(0, cfg.WalkOptions{
					Seed: seed, MaxInstr: spec.MaxInstr(), Scratch: &scratch,
				}, emit)
				if err != nil {
					b.Fatal(err)
				}
				return res.Instrs
			}
			walk(lukewarm.DefaultSeedBase) // size the scratch outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			var instrs uint64
			for i := 0; i < b.N; i++ {
				for s := uint64(0); s < 6; s++ {
					instrs += walk(lukewarm.DefaultSeedBase + s)
				}
			}
			b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
		})
	}
}
