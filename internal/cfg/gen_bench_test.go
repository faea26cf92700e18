package cfg_test

import (
	"testing"

	"ignite/internal/cfg"
	"ignite/internal/fleet/population"
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
