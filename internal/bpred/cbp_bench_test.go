package bpred_test

import (
	"testing"

	"ignite/internal/bpred"
	"ignite/internal/cfg"
	"ignite/internal/lukewarm"
	"ignite/internal/workload"
)

// tapeLen is the number of conditional branches BenchmarkCBP replays.
const tapeLen = 1 << 16

type branch struct {
	pc    uint64
	taken bool
}

// branchTape returns the first tapeLen conditional branches of the Table-1
// Auth-G program's committed walks, at the protocol's invocation seeds in
// order.
func branchTape(b *testing.B) []branch {
	spec, err := workload.ByName("Auth-G")
	if err != nil {
		b.Fatal(err)
	}
	prog, _, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	tape := make([]branch, 0, tapeLen)
	for seed := lukewarm.DefaultSeedBase; len(tape) < tapeLen; seed++ {
		res, err := prog.Walk(0, cfg.WalkOptions{Seed: seed, MaxInstr: spec.MaxInstr()},
			func(s cfg.Step) bool {
				if blk := &prog.Blocks[s.Block()]; blk.Kind == cfg.BranchCond {
					tape = append(tape, branch{blk.BranchPC(), s.Taken()})
				}
				return len(tape) < tapeLen
			})
		if err != nil {
			b.Fatal(err)
		}
		if res.Instrs == 0 {
			b.Fatal("empty walk")
		}
	}
	return tape
}

// BenchmarkCBP replays a branch tape through the Table-2 predictor, one
// Predict and one Update per branch, as the engine resolves a committed
// conditional branch. Each pass starts cold (FlushAll), like a lukewarm
// invocation.
func BenchmarkCBP(b *testing.B) {
	tape := branchTape(b)
	c := bpred.NewCBP()
	b.ReportAllocs()
	b.ResetTimer()
	wrong := 0
	for i := 0; i < b.N; i++ {
		c.FlushAll(1)
		for _, br := range tape {
			if c.Predict(br.pc) != br.taken {
				wrong++
			}
			c.Update(br.pc, br.taken)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tape)), "ns/branch")
	b.ReportMetric(float64(wrong)/float64(b.N*len(tape)), "mispredicts/branch")
}
