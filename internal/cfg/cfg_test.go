package cfg

import (
	"reflect"
	"testing"
	"unsafe"
)

// buildTiny constructs a small two-function program by hand:
//
//	fn0: straight; if(bias .8){straight}else{straight}; call fn1; loop{straight}x3; ret
//	fn1: straight; ret
func buildTiny(t *testing.T) *Program {
	t.Helper()
	p := NewProgram("tiny")
	body0 := &Seq{Nodes: []Node{
		&Straight{N: 4},
		&If{CondN: 2, ThenBias: 0.8, Then: &Straight{N: 3}, Else: &Straight{N: 5}},
		&Call{PreN: 1, Callee: 1},
		&Loop{Body: &Straight{N: 2}, MeanTrips: 3, LatchN: 1},
	}}
	p.AddFunction("fn0", body0, 2)
	p.AddFunction("fn1", &Straight{N: 6}, 1)
	if err := p.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

// blocksOf lists f's blocks, Entry..Ret, in address order.
func blocksOf(f *Function) []BlockID {
	var ids []BlockID
	for id := f.Entry; id <= f.Ret; id++ {
		ids = append(ids, id)
	}
	return ids
}

func TestTinyProgramShape(t *testing.T) {
	p := buildTiny(t)
	if got := p.NumFuncs(); got != 2 {
		t.Fatalf("NumFuncs = %d, want 2", got)
	}
	f0 := &p.Funcs[0]
	// Blocks of fn0: straight, cond, then, jmp, else, call, loop body,
	// latch, ret = 9 blocks.
	if got := f0.Ret - f0.Entry + 1; got != 9 {
		t.Errorf("fn0 has %d blocks, want 9", got)
	}
	ret := p.Block(f0.Ret)
	if ret.Kind != BranchReturn {
		t.Errorf("fn0 last block kind = %v, want return", ret.Kind)
	}
}

func TestLoweredIfWiring(t *testing.T) {
	p := buildTiny(t)
	blocks := blocksOf(&p.Funcs[0])
	cond := p.Block(blocks[1])
	if cond.Kind != BranchCond {
		t.Fatalf("block 1 kind = %v, want cond", cond.Kind)
	}
	// Taken path of the cond goes to the else part (skipping then+jmp).
	if cond.Target != blocks[4] {
		t.Errorf("cond target = %d, want else entry %d", cond.Target, blocks[4])
	}
	if cond.Fall != blocks[2] {
		t.Errorf("cond fall = %d, want then entry %d", cond.Fall, blocks[2])
	}
	// Bias: ThenBias .8 means taken probability .2.
	if cond.Bias < 0.19 || cond.Bias > 0.21 {
		t.Errorf("cond bias = %v, want 0.2", cond.Bias)
	}
	jmp := p.Block(blocks[3])
	if jmp.Kind != BranchUncond {
		t.Fatalf("block 3 kind = %v, want uncond", jmp.Kind)
	}
	// The jump over the else lands on the call block.
	if jmp.Target != blocks[5] {
		t.Errorf("jmp target = %d, want call block %d", jmp.Target, blocks[5])
	}
}

func TestLoweredCallAndLoopWiring(t *testing.T) {
	p := buildTiny(t)
	blocks := blocksOf(&p.Funcs[0])
	call := p.Block(blocks[5])
	if call.Kind != BranchCall {
		t.Fatalf("block 5 kind = %v, want call", call.Kind)
	}
	if call.Target != p.Funcs[1].Entry {
		t.Errorf("call target = %d, want fn1 entry %d", call.Target, p.Funcs[1].Entry)
	}
	if call.Fall != blocks[6] {
		t.Errorf("call fall = %d, want loop body %d", call.Fall, blocks[6])
	}
	latch := p.Block(blocks[7])
	if latch.Kind != BranchCond {
		t.Fatalf("block 7 kind = %v, want cond latch", latch.Kind)
	}
	if latch.Target != blocks[6] {
		t.Errorf("latch target = %d, want loop body %d", latch.Target, blocks[6])
	}
	// Mean trips 3 -> per-iteration continue bias 2/3.
	if latch.Bias < 0.66 || latch.Bias > 0.67 {
		t.Errorf("latch bias = %v, want 2/3", latch.Bias)
	}
}

func TestAddressesMonotonicAndAligned(t *testing.T) {
	p := buildTiny(t)
	var prev uint64
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.Addr < prev {
			t.Fatalf("block %d addr %#x < previous end %#x", i, b.Addr, prev)
		}
		prev = b.EndAddr()
	}
	for fi := range p.Funcs {
		entry := p.Block(p.Funcs[fi].Entry)
		if entry.Addr%CacheLineBytes != 0 {
			t.Errorf("fn%d entry %#x not line-aligned", fi, entry.Addr)
		}
	}
}

func TestWorkingSetAccounting(t *testing.T) {
	p := buildTiny(t)
	var instrs uint64
	for i := range p.Blocks {
		instrs += uint64(p.Blocks[i].NumInstr)
	}
	if got := p.NumInstr(); got != instrs {
		t.Errorf("NumInstr = %d, want %d", got, instrs)
	}
	if got := p.CodeBytes(); got != instrs*InstrBytes {
		t.Errorf("CodeBytes = %d, want %d", got, instrs*InstrBytes)
	}
	// Takeable sites in tiny: cond (bias .2), jmp, call, latch, 2 rets = 6.
	if got := p.StaticTakenBranchSites(); got != 6 {
		t.Errorf("StaticTakenBranchSites = %d, want 6", got)
	}
}

func TestNeverTakenExcludedFromSites(t *testing.T) {
	p := NewProgram("nt")
	p.AddFunction("f", &Seq{Nodes: []Node{
		&If{CondN: 1, ThenBias: 1.0, Then: &Straight{N: 2}}, // never taken
		&If{CondN: 1, ThenBias: 0.5, Then: &Straight{N: 2}}, // takeable
	}}, 1)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Sites: second cond + return = 2. First cond has bias 0.
	if got := p.StaticTakenBranchSites(); got != 2 {
		t.Errorf("sites = %d, want 2", got)
	}
}

func TestBranchKindPredicates(t *testing.T) {
	cases := []struct {
		k                         BranchKind
		isBranch, isCall, isIndir bool
	}{
		{BranchNone, false, false, false},
		{BranchCond, true, false, false},
		{BranchUncond, true, false, false},
		{BranchCall, true, true, false},
		{BranchReturn, true, false, true},
		{BranchIndirectJump, true, false, true},
		{BranchIndirectCall, true, true, true},
	}
	for _, c := range cases {
		if c.k.IsBranch() != c.isBranch {
			t.Errorf("%v IsBranch = %v", c.k, c.k.IsBranch())
		}
		if c.k.IsCall() != c.isCall {
			t.Errorf("%v IsCall = %v", c.k, c.k.IsCall())
		}
		if c.k.IsIndirect() != c.isIndir {
			t.Errorf("%v IsIndirect = %v", c.k, c.k.IsIndirect())
		}
	}
	if BranchCond.String() != "cond" || BranchKind(99).String() == "" {
		t.Error("String() misbehaves")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := buildTiny(t)
	saved := p.Blocks[1].Target
	p.Blocks[1].Target = BlockID(len(p.Blocks) + 5)
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted out-of-range target")
	}
	p.Blocks[1].Target = saved

	savedBias := p.Blocks[1].Bias
	p.Blocks[1].Bias = 1.5
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted bias > 1")
	}
	p.Blocks[1].Bias = savedBias

	if err := p.Validate(); err != nil {
		t.Errorf("restored program fails validation: %v", err)
	}
}

func TestFinalizeTwiceFails(t *testing.T) {
	p := buildTiny(t)
	if err := p.Finalize(); err == nil {
		t.Error("second Finalize should fail")
	}
}

func TestCallToUnknownFunctionFails(t *testing.T) {
	p := NewProgram("bad")
	p.AddFunction("f", &Call{PreN: 1, Callee: 7}, 1)
	if err := p.Finalize(); err == nil {
		t.Error("Finalize accepted dangling call")
	}
}

// TestTablesArePointerFree: the block table, the walk code and trace steps
// hold no pointer, slice, map, string or interface, so the garbage collector
// never scans them, and blocks and steps stay compact.
func TestTablesArePointerFree(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			return false
		default:
			return true
		}
	}
	for _, v := range []any{Block{}, Step(0), op{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%v holds a pointer, slice, map, string or interface", typ)
		}
	}
	if n := unsafe.Sizeof(Block{}); n > 48 {
		t.Errorf("Block is %d bytes, want at most 48", n)
	}
	if n := unsafe.Sizeof(Step(0)); n != 4 {
		t.Errorf("Step is %d bytes, want 4", n)
	}
}

func TestStepPacking(t *testing.T) {
	for _, b := range []BlockID{0, 1, 12345, 1<<31 - 1} {
		for _, taken := range []bool{false, true} {
			s := NewStep(b, taken)
			if s.Block() != b || s.Taken() != taken {
				t.Errorf("NewStep(%d, %v) unpacks to (%d, %v)", b, taken, s.Block(), s.Taken())
			}
		}
	}
}
