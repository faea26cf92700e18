package cfg

import (
	"testing"
	"testing/quick"
)

func collect(t *testing.T, p *Program, opt WalkOptions) ([]Step, WalkResult) {
	t.Helper()
	var steps []Step
	res, err := p.Walk(0, opt, func(s Step) bool {
		steps = append(steps, s)
		return true
	})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	return steps, res
}

func TestWalkDeterministic(t *testing.T) {
	p := buildTiny(t)
	a, _ := collect(t, p, WalkOptions{Seed: 42})
	b, _ := collect(t, p, WalkOptions{Seed: 42})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWalkSeedsDiffer(t *testing.T) {
	p := buildTiny(t)
	// With bias .8 and several random draws, different seeds should
	// eventually produce different traces.
	base, _ := collect(t, p, WalkOptions{Seed: 1})
	for seed := uint64(2); seed < 30; seed++ {
		s, _ := collect(t, p, WalkOptions{Seed: seed})
		if len(s) != len(base) {
			return
		}
		for i := range s {
			if s[i] != base[i] {
				return
			}
		}
	}
	t.Error("30 different seeds produced identical traces")
}

// TestWalkPathConsistency verifies the fundamental trace invariant: each
// step's successor matches the block's control flow (taken -> target or a
// call/return transfer; not-taken -> fall-through).
func TestWalkPathConsistency(t *testing.T) {
	p := buildTiny(t)
	steps, _ := collect(t, p, WalkOptions{Seed: 7})
	var ras []BlockID // return-site stack
	for i := 0; i < len(steps)-1; i++ {
		cur := p.Block(steps[i].Block())
		next := steps[i+1].Block()
		if steps[i].Taken() {
			switch cur.Kind {
			case BranchCall, BranchIndirectCall:
				ras = append(ras, cur.Fall)
				// Next block must be some function entry.
				found := false
				for fi := range p.Funcs {
					if p.Funcs[fi].Entry == next {
						found = true
					}
				}
				if !found {
					t.Fatalf("step %d: call to non-entry block %d", i, next)
				}
			case BranchReturn:
				if len(ras) == 0 {
					t.Fatalf("step %d: return with empty stack", i)
				}
				want := ras[len(ras)-1]
				ras = ras[:len(ras)-1]
				if next != want {
					t.Fatalf("step %d: return to %d, want %d", i, next, want)
				}
			case BranchCond, BranchUncond:
				if next != cur.Target {
					t.Fatalf("step %d: taken %v to %d, want target %d", i, cur.Kind, next, cur.Target)
				}
			case BranchIndirectJump:
				found := false
				for _, tg := range p.IndirectTargets(cur) {
					if tg == next {
						found = true
					}
				}
				if !found {
					t.Fatalf("step %d: ijump to %d not in targets", i, next)
				}
			default:
				t.Fatalf("step %d: taken on kind %v", i, cur.Kind)
			}
		} else {
			if cur.Kind == BranchUncond || cur.Kind == BranchReturn || cur.Kind == BranchIndirectJump {
				t.Fatalf("step %d: %v not taken", i, cur.Kind)
			}
			if next != cur.Fall {
				t.Fatalf("step %d: fall to %d, want %d", i, next, cur.Fall)
			}
		}
	}
	last := p.Block(steps[len(steps)-1].Block())
	if last.Kind != BranchReturn {
		t.Errorf("trace does not end in handler return (kind %v)", last.Kind)
	}
}

func TestWalkInstrBudgetTruncates(t *testing.T) {
	p := buildTiny(t)
	_, full := collect(t, p, WalkOptions{Seed: 3})
	_, cut := collect(t, p, WalkOptions{Seed: 3, MaxInstr: full.Instrs / 2})
	if !cut.Truncated {
		t.Error("budgeted walk not marked truncated")
	}
	if cut.Instrs > full.Instrs/2+64 {
		t.Errorf("budget overshoot: %d instrs for budget %d", cut.Instrs, full.Instrs/2)
	}
}

func TestWalkEmitAbort(t *testing.T) {
	p := buildTiny(t)
	n := 0
	res, err := p.Walk(0, WalkOptions{Seed: 3}, func(Step) bool {
		n++
		return n < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || n != 3 {
		t.Errorf("abort: truncated=%v emits=%d", res.Truncated, n)
	}
}

func TestWalkPeriodicBranchPattern(t *testing.T) {
	p := NewProgram("periodic")
	inner := &If{CondN: 1, Then: &Straight{N: 1}, Period: 4}
	p.AddFunction("f", &Loop{
		Body:      inner,
		MeanTrips: 16,
		LatchN:    1,
		Fixed:     true,
	}, 1)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	var outcomes []bool
	_, err := p.Walk(0, WalkOptions{Seed: 5}, func(s Step) bool {
		if s.Block() == inner.condBlk {
			outcomes = append(outcomes, s.Taken())
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 16 {
		t.Fatalf("cond executed %d times, want 16", len(outcomes))
	}
	for i, taken := range outcomes {
		want := i%4 == 0 // skip path (taken) exactly once per period
		if taken != want {
			t.Errorf("execution %d taken=%v, want %v", i, taken, want)
		}
	}
}

func TestWalkFixedLoopTrips(t *testing.T) {
	p := NewProgram("fixed")
	lp := &Loop{Body: &Straight{N: 2}, MeanTrips: 7, LatchN: 1, Fixed: true}
	p.AddFunction("f", lp, 1)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 5; seed++ {
		taken, notTaken := 0, 0
		p.Walk(0, WalkOptions{Seed: seed}, func(s Step) bool {
			if s.Block() == lp.latchBlk {
				if s.Taken() {
					taken++
				} else {
					notTaken++
				}
			}
			return true
		})
		if taken != 6 || notTaken != 1 {
			t.Errorf("seed %d: latch taken %d notTaken %d, want 6/1", seed, taken, notTaken)
		}
	}
}

func TestWalkErrors(t *testing.T) {
	p := NewProgram("x")
	p.AddFunction("f", &Straight{N: 1}, 1)
	if _, err := p.Walk(0, WalkOptions{}, func(Step) bool { return true }); err == nil {
		t.Error("walk of non-finalized program should fail")
	}
	p.Finalize()
	if _, err := p.Walk(5, WalkOptions{}, func(Step) bool { return true }); err == nil {
		t.Error("walk of bad entry should fail")
	}
}

// Property: for any seed, instruction counts reported by WalkResult match
// the sum over emitted blocks.
func TestWalkInstrCountProperty(t *testing.T) {
	p := buildTiny(t)
	f := func(seed uint64) bool {
		var sum uint64
		res, err := p.Walk(0, WalkOptions{Seed: seed}, func(s Step) bool {
			sum += uint64(p.Block(s.Block()).NumInstr)
			return true
		})
		return err == nil && res.Instrs == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
