package cfg

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Node is a structured control-flow construct. Functions are built as trees
// of nodes and lowered, once, to address-mapped basic blocks and to the
// pointer-free walk code the trace walker runs; the program keeps no node.
// Every node records the blocks it lowered to, for tests.
type Node interface {
	// lower appends this node's blocks and walk code to the lowerer's
	// program and records the block IDs in the node.
	lower(lw *lowerer)
}

// Straight is a run of N straight-line instructions with no control flow.
type Straight struct {
	N   int
	blk BlockID
}

// Seq executes its children in order.
type Seq struct {
	Nodes []Node
}

// If is an if/then[/else] construct. The lowered shape follows compiled
// code: CondN setup instructions ending in a conditional branch that is
// TAKEN when control skips the then-part (i.e. taken probability is
// 1-ThenBias), an optional else-part reached via the taken path, and an
// unconditional jump over the else-part at the end of the then-part.
type If struct {
	CondN    int     // instructions in the condition block (>=1)
	ThenBias float64 // probability the then-part executes
	Then     Node
	Else     Node // may be nil
	// Period, when >= 2, makes the branch outcome deterministic and
	// history-correlated: the then-part is skipped exactly once every
	// Period executions (and ThenBias is ignored). Such branches are
	// mispredicted by a bimodal predictor but learnable by TAGE.
	Period int

	condBlk BlockID
	jmpBlk  BlockID // uncond jump over else; NoBlock when Else is nil
}

// Loop is a bottom-tested counted loop: the body executes MeanTrips times
// on average (at least once), with a backward conditional branch in the
// latch block.
type Loop struct {
	Body      Node
	MeanTrips float64 // mean trip count, >= 1
	LatchN    int     // instructions in the latch block (>=1)
	// Fixed makes the trip count exactly round(MeanTrips) on every
	// execution, which a loop predictor / TAGE can capture; otherwise
	// trips are jittered ±25% around the mean.
	Fixed bool

	bodyEntry BlockID
	latchBlk  BlockID
}

// Call is a direct call to another function, preceded by PreN setup
// instructions.
type Call struct {
	PreN   int
	Callee int // function index; must form a DAG (callee never recurses back)

	blk BlockID
}

// IndirectCall is a call through a function pointer / vtable slot. The
// callee is sampled from Callees with the given Weights on each execution.
type IndirectCall struct {
	PreN    int
	Callees []int
	Weights []float64

	blk BlockID
}

// Switch is a multi-way dispatch through an indirect jump (jump table or
// interpreter dispatch). Each case ends with a jump to the construct's end.
type Switch struct {
	PreN    int
	Cases   []Node
	Weights []float64

	dispatchBlk BlockID
	caseJmps    []BlockID // trailing jump of each case except the last
	caseEntries []BlockID
}

// lowerer builds a function's blocks and walk code inside a program.
type lowerer struct {
	p       *Program
	fn      int32
	pending []BlockID // blocks whose Target resolves to the next appended block
}

// append adds a block, resolving pending forward targets to it.
func (lw *lowerer) append(b Block) BlockID {
	id := BlockID(narrow(len(lw.p.Blocks)))
	b.ID = id
	b.Func = lw.fn
	for _, pid := range lw.pending {
		lw.p.Blocks[pid].Target = id
	}
	lw.pending = lw.pending[:0]
	lw.p.Blocks = append(lw.p.Blocks, b)
	return id
}

// deferTarget registers blk to have its Target patched to the next block.
func (lw *lowerer) deferTarget(blk BlockID) {
	lw.pending = append(lw.pending, blk)
}

// narrow converts a count to int32 for a program table, panicking rather
// than silently truncating one that does not fit.
func narrow(n int) int32 {
	if n < math.MinInt32 || n > math.MaxInt32 {
		panic(fmt.Sprintf("cfg: count %d overflows int32", n))
	}
	return int32(n)
}

// emit appends a walk op and returns its index.
func (lw *lowerer) emit(o op) int32 {
	lw.p.code = append(lw.p.code, o)
	return narrow(len(lw.p.code) - 1)
}

// ops returns the number of ops emitted since (and including) op at.
func (lw *lowerer) ops(at int32) int32 { return narrow(len(lw.p.code)) - at }

// float appends a float operand and returns its index.
func (lw *lowerer) float(v float64) int32 {
	lw.p.floats = append(lw.p.floats, v)
	return narrow(len(lw.p.floats) - 1)
}

// weights appends the weights of an n-way choice and returns their index,
// or -1 (a uniform draw) when there are not exactly n of them.
func (lw *lowerer) weights(ws []float64, n int) int32 {
	if len(ws) != n {
		return -1
	}
	lw.p.floats = append(lw.p.floats, ws...)
	return narrow(len(lw.p.floats)) - int32(n)
}

// reserve appends n zero int operands and n NoBlock indirect targets, and
// returns both offsets.
func (lw *lowerer) reserve(n int) (ints, targets int32) {
	for range n {
		lw.p.ints = append(lw.p.ints, 0)
		lw.p.targets = append(lw.p.targets, NoBlock)
	}
	return narrow(len(lw.p.ints)) - int32(n), narrow(len(lw.p.targets)) - int32(n)
}

// tableSizes counts the entries lowering appends to each program table.
type tableSizes struct{ blocks, ops, floats, ints, targets int }

// measure adds what n.lower appends, so Generate can allocate every table
// once. It mirrors the lower methods below: a change to what one of them
// appends must change its case here.
func (sz *tableSizes) measure(n Node) {
	switch n := n.(type) {
	case *Seq:
		for _, m := range n.Nodes {
			sz.measure(m)
		}
	case *If:
		sz.blocks++
		sz.ops++
		if n.Period < 2 {
			sz.floats++ // ThenBias
		}
		sz.measure(n.Then)
		if n.Else != nil {
			sz.blocks++ // the jump over the else part
			sz.ops++
			sz.measure(n.Else)
		}
	case *Loop:
		sz.blocks++ // the latch
		sz.ops++
		sz.floats++ // MeanTrips
		sz.measure(n.Body)
	case *Switch:
		k := len(n.Cases)
		sz.blocks += max(k, 1) // the dispatch block + every case's exit jump but the last
		sz.ops += max(k, 1)
		sz.ints += k // case lengths
		sz.targets += k
		if len(n.Weights) == k {
			sz.floats += k
		}
		for _, cs := range n.Cases {
			sz.measure(cs)
		}
	case *IndirectCall:
		k := len(n.Callees)
		sz.blocks++
		sz.ops++
		sz.ints += k // callees
		sz.targets += k
		if len(n.Weights) == k {
			sz.floats += k
		}
	default: // *Straight, *Call
		sz.blocks++
		sz.ops++
	}
}

func (s *Straight) lower(lw *lowerer) {
	n := s.N
	if n < 1 {
		n = 1
	}
	s.blk = lw.append(Block{NumInstr: narrow(n), Kind: BranchNone, Target: NoBlock})
	lw.emit(op{kind: opStraight, blk: s.blk, size: 1})
}

func (s *Seq) lower(lw *lowerer) {
	for _, n := range s.Nodes {
		n.lower(lw)
	}
}

func (f *If) lower(lw *lowerer) {
	n := f.CondN
	if n < 1 {
		n = 1
	}
	bias := 1 - f.ThenBias
	if f.Period >= 2 {
		bias = 1 / float64(f.Period)
	}
	f.condBlk = lw.append(Block{NumInstr: narrow(n), Kind: BranchCond, Target: NoBlock, Bias: bias})
	cond := f.condBlk
	o := op{kind: opIf, blk: cond}
	if f.Period >= 2 {
		o.kind, o.arg = opIfPeriodic, narrow(f.Period)
	} else {
		o.arg = lw.float(f.ThenBias)
	}
	at := lw.emit(o)
	f.Then.lower(lw)
	if f.Else != nil {
		// The then part ends with the jump over the else part.
		f.jmpBlk = lw.append(Block{NumInstr: 1, Kind: BranchUncond, Target: NoBlock})
		lw.emit(op{kind: opJump, blk: f.jmpBlk, size: 1})
		lw.p.code[at].n = lw.ops(at) - 1
		// The cond's taken path resolves to the else entry, the next
		// appended block; the jump over the else part resolves to
		// whatever follows the whole construct.
		lw.deferTarget(cond)
		f.Else.lower(lw)
		lw.deferTarget(f.jmpBlk)
	} else {
		f.jmpBlk = NoBlock
		lw.p.code[at].n = lw.ops(at) - 1
		lw.deferTarget(cond)
	}
	lw.p.code[at].size = lw.ops(at)
}

func (l *Loop) lower(lw *lowerer) {
	n := l.LatchN
	if n < 1 {
		n = 1
	}
	l.bodyEntry = BlockID(len(lw.p.Blocks))
	kind := opLoop
	if l.Fixed {
		kind = opLoopFixed
	}
	at := lw.emit(op{kind: kind, arg: lw.float(l.MeanTrips)})
	// Pending targets from the preceding construct resolve to the loop
	// body entry via the next append inside Body.
	l.Body.lower(lw)
	trips := l.MeanTrips
	if trips < 1 {
		trips = 1
	}
	bias := (trips - 1) / trips
	l.latchBlk = lw.append(Block{NumInstr: narrow(n), Kind: BranchCond, Target: l.bodyEntry, Bias: bias})
	lw.p.code[at].blk = l.latchBlk
	lw.p.code[at].size = lw.ops(at)
}

func (c *Call) lower(lw *lowerer) {
	n := c.PreN
	if n < 0 {
		n = 0
	}
	// Target is patched to the callee entry at Finalize, because the
	// callee may not be lowered yet.
	c.blk = lw.append(Block{NumInstr: narrow(n + 1), Kind: BranchCall, Target: NoBlock})
	lw.emit(op{kind: opCall, blk: c.blk, arg: narrow(c.Callee), size: 1})
}

func (c *IndirectCall) lower(lw *lowerer) {
	n := c.PreN
	if n < 0 {
		n = 0
	}
	k := len(c.Callees)
	ints, tgts := lw.reserve(k)
	for i, callee := range c.Callees {
		lw.p.ints[ints+int32(i)] = narrow(callee)
	}
	// The target slots are filled with the callee entries at Finalize.
	c.blk = lw.append(Block{NumInstr: narrow(n + 1), Kind: BranchIndirectCall, Target: NoBlock,
		tgtOff: tgts, tgtN: narrow(k)})
	lw.emit(op{kind: opIndirectCall, blk: c.blk, n: narrow(k), arg: ints, w: lw.weights(c.Weights, k), size: 1})
}

func (s *Switch) lower(lw *lowerer) {
	n := s.PreN
	if n < 1 {
		n = 1
	}
	k := len(s.Cases)
	lens, tgts := lw.reserve(k)
	s.dispatchBlk = lw.append(Block{NumInstr: narrow(n), Kind: BranchIndirectJump, Target: NoBlock,
		tgtOff: tgts, tgtN: narrow(k)})
	at := lw.emit(op{kind: opSwitch, blk: s.dispatchBlk, n: narrow(k), arg: lens, w: lw.weights(s.Weights, k)})
	s.caseEntries = s.caseEntries[:0]
	s.caseJmps = s.caseJmps[:0]
	for i, cs := range s.Cases {
		entry := BlockID(len(lw.p.Blocks))
		s.caseEntries = append(s.caseEntries, entry)
		lw.p.targets[tgts+int32(i)] = entry
		part := narrow(len(lw.p.code))
		cs.lower(lw)
		if i < k-1 {
			jmp := lw.append(Block{NumInstr: 1, Kind: BranchUncond, Target: NoBlock})
			s.caseJmps = append(s.caseJmps, jmp)
			lw.emit(op{kind: opJump, blk: jmp, size: 1})
		}
		lw.p.ints[lens+int32(i)] = lw.ops(part)
	}
	// Every case-exit jump targets the block following the whole switch;
	// registering them only after all cases are lowered keeps them from
	// resolving to the next case's entry.
	for _, jmp := range s.caseJmps {
		lw.deferTarget(jmp)
	}
	if k > 0 {
		lw.p.Blocks[s.dispatchBlk].Target = s.caseEntries[0]
	}
	lw.p.code[at].size = lw.ops(at)
}

// AddFunction lowers body as a new function and returns its index. A return
// block (RetN instructions ending in a return) is appended automatically.
func (p *Program) AddFunction(name string, body Node, retN int) int {
	if p.finalized {
		panic("cfg: AddFunction after Finalize")
	}
	idx := len(p.Funcs)
	lw := &lowerer{p: p, fn: narrow(idx)}
	start := BlockID(len(p.Blocks))
	code := narrow(len(p.code))
	body.lower(lw)
	if retN < 1 {
		retN = 1
	}
	ret := lw.append(Block{NumInstr: narrow(retN), Kind: BranchReturn, Target: NoBlock})
	p.Funcs = append(p.Funcs, Function{
		Index:   idx,
		Name:    name,
		Entry:   start,
		Ret:     ret,
		code:    code,
		codeEnd: narrow(len(p.code)),
	})
	return idx
}

// Finalize assigns addresses, resolves cross-function call targets and
// fall-through successors, and freezes the program. It must be called once
// after all functions are added.
func (p *Program) Finalize() error {
	if p.finalized {
		return fmt.Errorf("cfg: already finalized")
	}
	// Resolve call targets from the walk code: a direct call's Target and
	// an indirect call's target slots become its callees' entries.
	entry := func(what string, blk BlockID, callee int32) (BlockID, error) {
		if callee < 0 || int(callee) >= len(p.Funcs) {
			return NoBlock, fmt.Errorf("cfg: %s in block %d to unknown function %d", what, blk, callee)
		}
		return p.Funcs[callee].Entry, nil
	}
	for i := range p.code {
		o := &p.code[i]
		b := &p.Blocks[o.blk]
		var err error
		switch o.kind {
		case opCall:
			b.Target, err = entry("call", o.blk, o.arg)
		case opIndirectCall:
			tgts := p.IndirectTargets(b)
			for j, callee := range p.ints[o.arg : o.arg+o.n] {
				if tgts[j], err = entry("indirect call", o.blk, callee); err != nil {
					break
				}
			}
			if len(tgts) > 0 {
				b.Target = tgts[0]
			}
		}
		if err != nil {
			return err
		}
	}

	// Assign addresses: functions contiguous, 64-byte aligned entries.
	// With a layout seed, functions are placed in shuffled order (link
	// order is uncorrelated with call order in real binaries).
	order := make([]int, len(p.Funcs))
	for i := range order {
		order[i] = i
	}
	if p.LayoutSeed != 0 {
		rng := rand.New(rand.NewPCG(p.LayoutSeed, p.LayoutSeed^0x1a2b3c4d5e6f7788))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	addr := p.BaseAddr
	for _, fi := range order {
		if rem := addr % CacheLineBytes; rem != 0 {
			addr += CacheLineBytes - rem
		}
		for id := p.Funcs[fi].Entry; id <= p.Funcs[fi].Ret; id++ {
			b := &p.Blocks[id]
			b.Addr = addr
			addr += b.Bytes()
		}
	}

	// Fall-through successors: the next block within the same function,
	// except for blocks that never fall through.
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		for id := f.Entry; id <= f.Ret; id++ {
			b := &p.Blocks[id]
			b.Fall = NoBlock
			switch b.Kind {
			case BranchUncond, BranchReturn, BranchIndirectJump:
			default:
				if id < f.Ret {
					b.Fall = id + 1
				}
			}
		}
	}
	p.finalized = true
	return nil
}
