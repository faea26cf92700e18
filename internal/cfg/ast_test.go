package cfg

import "testing"

// buildSwitchy constructs a program exercising Switch and IndirectCall.
func buildSwitchy(t *testing.T) (*Program, *Switch, *IndirectCall) {
	t.Helper()
	p := NewProgram("switchy")
	sw := &Switch{
		PreN: 2,
		Cases: []Node{
			&Straight{N: 3},
			&Straight{N: 4},
			&Straight{N: 5},
		},
		Weights: []float64{1, 1, 1},
	}
	ic := &IndirectCall{PreN: 1, Callees: []int{1, 2}, Weights: []float64{1, 3}}
	p.AddFunction("main", &Seq{Nodes: []Node{sw, ic, &Straight{N: 2}}}, 1)
	p.AddFunction("callee1", &Straight{N: 4}, 1)
	p.AddFunction("callee2", &Straight{N: 6}, 1)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p, sw, ic
}

func TestSwitchLowering(t *testing.T) {
	p, sw, _ := buildSwitchy(t)
	d := p.Block(sw.dispatchBlk)
	if d.Kind != BranchIndirectJump {
		t.Fatalf("dispatch kind = %v", d.Kind)
	}
	if len(p.IndirectTargets(d)) != 3 {
		t.Fatalf("dispatch has %d targets", len(p.IndirectTargets(d)))
	}
	// Case entries must match the recorded indirect targets.
	for i, tgt := range p.IndirectTargets(d) {
		if tgt != sw.caseEntries[i] {
			t.Errorf("target %d = %d, want %d", i, tgt, sw.caseEntries[i])
		}
	}
	// All but the last case end with a jump to the switch's end.
	if len(sw.caseJmps) != 2 {
		t.Fatalf("got %d case jumps, want 2", len(sw.caseJmps))
	}
	end := sw.caseEntries[2] + 1 // block after last case body
	for _, j := range sw.caseJmps {
		if p.Block(j).Kind != BranchUncond {
			t.Errorf("case jump %d not unconditional", j)
		}
		if p.Block(j).Target != end {
			t.Errorf("case jump target %d, want %d", p.Block(j).Target, end)
		}
	}
}

func TestIndirectCallLowering(t *testing.T) {
	p, _, ic := buildSwitchy(t)
	b := p.Block(ic.blk)
	if b.Kind != BranchIndirectCall {
		t.Fatalf("icall kind = %v", b.Kind)
	}
	if len(p.IndirectTargets(b)) != 2 {
		t.Fatalf("icall has %d targets", len(p.IndirectTargets(b)))
	}
	if p.IndirectTargets(b)[0] != p.Funcs[1].Entry || p.IndirectTargets(b)[1] != p.Funcs[2].Entry {
		t.Error("icall targets are not the callee entries")
	}
}

func TestWalkSwitchConsistency(t *testing.T) {
	p, sw, ic := buildSwitchy(t)
	caseCounts := make(map[BlockID]int)
	calleeCounts := make(map[BlockID]int)
	for seed := uint64(0); seed < 60; seed++ {
		var prev Step
		havePrev := false
		_, err := p.Walk(0, WalkOptions{Seed: seed}, func(s Step) bool {
			if havePrev && prev.Taken() {
				pb := p.Block(prev.Block())
				if pb.ID == sw.dispatchBlk {
					caseCounts[s.Block()]++
				}
				if pb.ID == ic.blk {
					calleeCounts[s.Block()]++
				}
			}
			prev, havePrev = s, true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// All three cases should be exercised across 60 seeds.
	if len(caseCounts) != 3 {
		t.Errorf("switch exercised %d cases, want 3 (%v)", len(caseCounts), caseCounts)
	}
	// Both callees should be taken; callee2 (weight 3) more often.
	c1 := calleeCounts[p.Funcs[1].Entry]
	c2 := calleeCounts[p.Funcs[2].Entry]
	if c1 == 0 || c2 == 0 {
		t.Fatalf("callees: %d/%d", c1, c2)
	}
	if c2 <= c1 {
		t.Errorf("weighted callee2 (%d) should dominate callee1 (%d)", c2, c1)
	}
}

func TestShuffledLayoutIsPermutation(t *testing.T) {
	build := func(seed uint64) *Program {
		p := NewProgram("x")
		p.LayoutSeed = seed
		for i := 0; i < 6; i++ {
			p.AddFunction("f", &Straight{N: 8}, 1)
		}
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := build(0) // unshuffled: entries in index order
	b := build(7) // shuffled
	var orderA, orderB []int
	collect := func(p *Program) []int {
		type fa struct {
			fi   int
			addr uint64
		}
		var fs []fa
		for i := range p.Funcs {
			fs = append(fs, fa{i, p.Block(p.Funcs[i].Entry).Addr})
		}
		for i := 0; i < len(fs); i++ {
			for j := i + 1; j < len(fs); j++ {
				if fs[j].addr < fs[i].addr {
					fs[i], fs[j] = fs[j], fs[i]
				}
			}
		}
		var order []int
		for _, f := range fs {
			order = append(order, f.fi)
		}
		return order
	}
	orderA = collect(a)
	orderB = collect(b)
	same := true
	seen := map[int]bool{}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			same = false
		}
		seen[orderB[i]] = true
	}
	if same {
		t.Error("layout seed did not shuffle function order")
	}
	if len(seen) != 6 {
		t.Error("shuffled layout lost functions")
	}
}

func TestPeriodicBiasInLowering(t *testing.T) {
	p := NewProgram("per")
	p.AddFunction("f", &If{CondN: 1, Then: &Straight{N: 1}, Period: 4}, 1)
	p.Finalize()
	cond := p.Block(p.Funcs[0].Entry)
	if cond.Bias != 0.25 {
		t.Errorf("period-4 branch bias = %v, want 0.25", cond.Bias)
	}
}
