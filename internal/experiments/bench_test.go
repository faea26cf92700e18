package experiments

import (
	"context"
	"testing"

	"ignite/internal/workload"
)

// BenchmarkAblCodec times the codec study at perfbench's sweep shape: AES-P
// and Auth-G at 50k instructions with Parallel 2, so the study records
// AES-P, its first workload. The program is built before the timer starts,
// so an iteration is the recorder run and the table.
func BenchmarkAblCodec(b *testing.B) {
	var specs []workload.Spec
	for _, name := range []string{"AES-P", "Auth-G"} {
		s, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		s.TargetInstr = 50_000
		specs = append(specs, s)
	}
	opt := Options{Workloads: specs, Parallel: 2, Cache: NewCellCache()}
	if _, err := opt.Cache.program(specs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AblCodec(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
}
