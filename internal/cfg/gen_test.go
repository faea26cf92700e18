package cfg

import (
	"testing"
)

func genDefault(t *testing.T, seed uint64) (*Program, GenReport) {
	t.Helper()
	p, rep, err := Generate(GenParams{
		Seed:           seed,
		CodeKiB:        256,
		BranchSites:    6000,
		IndirectFrac:   0.3,
		PeriodicFrac:   0.08,
		NeverTakenFrac: 0.12,
		HardFrac:       0.06,
		ColdElseFrac:   0.08,
		FixedLoopFrac:  0.3,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return p, rep
}

func TestGenerateValidates(t *testing.T) {
	p, _ := genDefault(t, 1)
	if err := p.Validate(); err != nil {
		t.Fatalf("generated program invalid: %v", err)
	}
}

// TestGenerateExactBlockTable: Generate measures every table its bodies
// lower to (blocks, walk code, both operand pools, indirect targets) and
// allocates each once, so none carries growth slack. It runs over seeds 1-5
// of genDefault and one parameter set per language flavour of the workload
// catalog (interpreted, JIT-compiled and compiled).
func TestGenerateExactBlockTable(t *testing.T) {
	var progs []*Program
	for seed := uint64(1); seed <= 5; seed++ {
		p, _ := genDefault(t, seed)
		progs = append(progs, p)
	}
	for _, gp := range []GenParams{
		{Seed: 6, CodeKiB: 300, BranchSites: 9000, MeanFuncBytes: 2048, CallSpan: 14, IndirectFrac: 0.50,
			PeriodicFrac: 0.07, NeverTakenFrac: 0.14, HardFrac: 0.04, ColdElseFrac: 0.10,
			MeanLoopTrips: 2.2, FixedLoopFrac: 0.75, RequestLoopTrips: 50},
		{Seed: 7, CodeKiB: 300, BranchSites: 9000, MeanFuncBytes: 2048, CallSpan: 12, IndirectFrac: 0.40,
			PeriodicFrac: 0.12, NeverTakenFrac: 0.16, HardFrac: 0.05, ColdElseFrac: 0.08,
			MeanLoopTrips: 2.0, FixedLoopFrac: 0.75, RequestLoopTrips: 50},
		{Seed: 8, CodeKiB: 300, BranchSites: 9000, MeanFuncBytes: 2560, CallSpan: 10, IndirectFrac: 0.18,
			PeriodicFrac: 0.08, NeverTakenFrac: 0.18, HardFrac: 0.04, ColdElseFrac: 0.08,
			MeanLoopTrips: 2.0, FixedLoopFrac: 0.75, RequestLoopTrips: 50},
	} {
		p, _, err := Generate(gp)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for i, p := range progs {
		for _, tb := range []struct {
			name     string
			len, cap int
		}{
			{"blocks", len(p.Blocks), cap(p.Blocks)},
			{"funcs", len(p.Funcs), cap(p.Funcs)},
			{"walk code", len(p.code), cap(p.code)},
			{"floats", len(p.floats), cap(p.floats)},
			{"ints", len(p.ints), cap(p.ints)},
			{"indirect targets", len(p.targets), cap(p.targets)},
		} {
			if tb.len != tb.cap || tb.len == 0 {
				t.Errorf("program %d: %s len %d cap %d: want a non-empty exact allocation", i, tb.name, tb.len, tb.cap)
			}
		}
	}
}

func TestGenerateHitsCodeSizeTarget(t *testing.T) {
	_, rep := genDefault(t, 2)
	want := uint64(256 * 1024)
	if rep.CodeBytes < want/2 || rep.CodeBytes > want*2 {
		t.Errorf("code bytes = %d, want within 2x of %d", rep.CodeBytes, want)
	}
}

func TestGenerateHitsBranchSiteTarget(t *testing.T) {
	_, rep := genDefault(t, 3)
	if rep.TakenBranchSites < 3000 || rep.TakenBranchSites > 12000 {
		t.Errorf("taken branch sites = %d, want within 2x of 6000", rep.TakenBranchSites)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p1, r1 := genDefault(t, 9)
	p2, r2 := genDefault(t, 9)
	if r1 != r2 {
		t.Fatalf("reports differ: %+v vs %+v", r1, r2)
	}
	if len(p1.Blocks) != len(p2.Blocks) {
		t.Fatalf("block counts differ")
	}
	for i := range p1.Blocks {
		a, b := p1.Blocks[i], p2.Blocks[i]
		if a.Addr != b.Addr || a.NumInstr != b.NumInstr || a.Kind != b.Kind ||
			a.Target != b.Target || a.Bias != b.Bias {
			t.Fatalf("block %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestGenerateSeedsProduceDifferentPrograms(t *testing.T) {
	_, r1 := genDefault(t, 10)
	_, r2 := genDefault(t, 11)
	if r1 == r2 {
		t.Error("different seeds produced identical reports (suspicious)")
	}
}

// Every function must be reachable: walking a full invocation should touch
// a large majority of functions (coverage calls are on common paths).
func TestGenerateCoverage(t *testing.T) {
	p, rep := genDefault(t, 4)
	touched := make(map[int32]bool)
	_, err := p.Walk(0, WalkOptions{Seed: 77, MaxInstr: 4_000_000}, func(s Step) bool {
		touched[p.Block(s.Block()).Func] = true
		return true
	})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	frac := float64(len(touched)) / float64(rep.NumFuncs)
	if frac < 0.9 {
		t.Errorf("invocation touched %.0f%% of functions, want >= 90%%", frac*100)
	}
}

// The walk must terminate on its own (handler returns) well before the
// safety budget for default request-loop settings.
func TestGenerateWalkTerminates(t *testing.T) {
	p, _ := genDefault(t, 5)
	res, err := p.Walk(0, WalkOptions{Seed: 1, MaxInstr: 100_000_000}, func(Step) bool { return true })
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if res.Truncated {
		t.Errorf("walk truncated at %d instrs; expected natural termination", res.Instrs)
	}
	if res.Instrs == 0 {
		t.Error("empty walk")
	}
}

func TestGenerateDynamicStaticRatio(t *testing.T) {
	p, rep := genDefault(t, 6)
	res, err := p.Walk(0, WalkOptions{Seed: 2}, func(Step) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.Instrs) / float64(rep.StaticInstrs)
	// Loops and the request loop should make dynamic length a small
	// multiple of static size.
	if ratio < 1 || ratio > 100 {
		t.Errorf("dynamic/static ratio = %.1f, want between 1 and 100", ratio)
	}
}

func TestGenerateBranchMix(t *testing.T) {
	p, _ := genDefault(t, 7)
	kinds := map[BranchKind]int{}
	for i := range p.Blocks {
		kinds[p.Blocks[i].Kind]++
	}
	for _, k := range []BranchKind{BranchCond, BranchUncond, BranchCall, BranchReturn, BranchIndirectJump} {
		if kinds[k] == 0 {
			t.Errorf("no blocks of kind %v generated", k)
		}
	}
	// With IndirectFrac 0.3 there should be some indirect calls too.
	if kinds[BranchIndirectCall] == 0 {
		t.Error("no indirect calls generated")
	}
}

func TestGenerateDefaultParams(t *testing.T) {
	p, rep, err := Generate(GenParams{Seed: 1})
	if err != nil {
		t.Fatalf("Generate with defaults: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.NumFuncs < 3 {
		t.Errorf("NumFuncs = %d", rep.NumFuncs)
	}
}
