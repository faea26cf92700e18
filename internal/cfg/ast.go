package cfg

import (
	"fmt"
	"math/rand/v2"
)

// Node is a structured control-flow construct. Functions are built as trees
// of nodes and lowered to address-mapped basic blocks; the trace walker
// later executes the same tree, so every node records the blocks it lowered
// to.
type Node interface {
	// lower appends this node's blocks to the lowerer and records their
	// IDs in the node for the walker.
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

// lowerer builds a function's blocks inside a program.
type lowerer struct {
	p       *Program
	fn      int
	pending []BlockID // blocks whose Target resolves to the next appended block
}

// append adds a block, resolving pending forward targets to it.
func (lw *lowerer) append(b Block) BlockID {
	id := BlockID(len(lw.p.Blocks))
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

// blockCount returns the number of blocks n.lower appends, so Generate can
// allocate the block table once. It mirrors the lower methods below: a
// change to the blocks one of them appends must change its case here.
func blockCount(n Node) int {
	switch n := n.(type) {
	case *Seq:
		c := 0
		for _, m := range n.Nodes {
			c += blockCount(m)
		}
		return c
	case *If:
		c := 1 + blockCount(n.Then)
		if n.Else != nil {
			c += 1 + blockCount(n.Else) // the jump over the else part
		}
		return c
	case *Loop:
		return blockCount(n.Body) + 1 // + the latch
	case *Switch:
		c := max(len(n.Cases), 1) // the dispatch block + every case's exit jump but the last
		for _, cs := range n.Cases {
			c += blockCount(cs)
		}
		return c
	default: // *Straight, *Call, *IndirectCall
		return 1
	}
}

func (s *Straight) lower(lw *lowerer) {
	n := s.N
	if n < 1 {
		n = 1
	}
	s.blk = lw.append(Block{NumInstr: n, Kind: BranchNone, Target: NoBlock})
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
	f.condBlk = lw.append(Block{NumInstr: n, Kind: BranchCond, Target: NoBlock, Bias: bias})
	cond := f.condBlk
	f.Then.lower(lw)
	if f.Else != nil {
		f.jmpBlk = lw.append(Block{NumInstr: 1, Kind: BranchUncond, Target: NoBlock})
		// The else entry is the next appended block.
		lw.deferTarget(cond)
		f.Else.lower(lw)
		// Resolve cond target now that else entry exists: deferTarget
		// resolved it at the first block of Else. The jump over the
		// else part resolves to whatever follows the whole construct.
		lw.deferTarget(f.jmpBlk)
		// Remove duplicate pending entry for cond if Else was empty in
		// blocks; cannot happen because every node appends >=1 block.
	} else {
		f.jmpBlk = NoBlock
		lw.deferTarget(cond)
	}
}

func (l *Loop) lower(lw *lowerer) {
	n := l.LatchN
	if n < 1 {
		n = 1
	}
	l.bodyEntry = BlockID(len(lw.p.Blocks))
	// Pending targets from the preceding construct resolve to the loop
	// body entry via the next append inside Body.
	l.Body.lower(lw)
	trips := l.MeanTrips
	if trips < 1 {
		trips = 1
	}
	bias := (trips - 1) / trips
	l.latchBlk = lw.append(Block{NumInstr: n, Kind: BranchCond, Target: l.bodyEntry, Bias: bias})
}

func (c *Call) lower(lw *lowerer) {
	n := c.PreN
	if n < 0 {
		n = 0
	}
	// Target is patched to the callee entry in Program finalization,
	// because the callee may not be lowered yet. Encode the callee
	// function index in Target temporarily via the calls fixup list.
	c.blk = lw.append(Block{NumInstr: n + 1, Kind: BranchCall, Target: NoBlock})
	lw.p.callFixups = append(lw.p.callFixups, callFixup{blk: c.blk, callee: c.Callee})
}

func (c *IndirectCall) lower(lw *lowerer) {
	n := c.PreN
	if n < 0 {
		n = 0
	}
	c.blk = lw.append(Block{NumInstr: n + 1, Kind: BranchIndirectCall, Target: NoBlock})
	lw.p.icallFixups = append(lw.p.icallFixups, icallFixup{blk: c.blk, callees: c.Callees})
}

func (s *Switch) lower(lw *lowerer) {
	n := s.PreN
	if n < 1 {
		n = 1
	}
	s.dispatchBlk = lw.append(Block{NumInstr: n, Kind: BranchIndirectJump, Target: NoBlock})
	s.caseEntries = s.caseEntries[:0]
	s.caseJmps = s.caseJmps[:0]
	for i, cs := range s.Cases {
		s.caseEntries = append(s.caseEntries, BlockID(len(lw.p.Blocks)))
		cs.lower(lw)
		if i < len(s.Cases)-1 {
			jmp := lw.append(Block{NumInstr: 1, Kind: BranchUncond, Target: NoBlock})
			s.caseJmps = append(s.caseJmps, jmp)
		}
	}
	// Every case-exit jump targets the block following the whole switch;
	// registering them only after all cases are lowered keeps them from
	// resolving to the next case's entry.
	for _, jmp := range s.caseJmps {
		lw.deferTarget(jmp)
	}
	d := &lw.p.Blocks[s.dispatchBlk]
	d.IndirectTargets = append([]BlockID(nil), s.caseEntries...)
	if len(s.caseEntries) > 0 {
		d.Target = s.caseEntries[0]
	}
}

type callFixup struct {
	blk    BlockID
	callee int
}

type icallFixup struct {
	blk     BlockID
	callees []int
}

// AddFunction lowers body as a new function and returns its index. A return
// block (RetN instructions ending in a return) is appended automatically.
func (p *Program) AddFunction(name string, body Node, retN int) int {
	if p.finalized {
		panic("cfg: AddFunction after Finalize")
	}
	idx := len(p.Funcs)
	lw := &lowerer{p: p, fn: idx}
	start := BlockID(len(p.Blocks))
	body.lower(lw)
	if retN < 1 {
		retN = 1
	}
	ret := lw.append(Block{NumInstr: retN, Kind: BranchReturn, Target: NoBlock})
	blocks := make([]BlockID, 0, int(ret-start)+1)
	for id := start; id <= ret; id++ {
		blocks = append(blocks, id)
	}
	p.Funcs = append(p.Funcs, Function{
		Index:  idx,
		Name:   name,
		Entry:  start,
		Ret:    ret,
		Body:   body,
		blocks: blocks,
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
	// Resolve direct call targets.
	for _, fx := range p.callFixups {
		if fx.callee < 0 || fx.callee >= len(p.Funcs) {
			return fmt.Errorf("cfg: call in block %d to unknown function %d", fx.blk, fx.callee)
		}
		p.Blocks[fx.blk].Target = p.Funcs[fx.callee].Entry
	}
	for _, fx := range p.icallFixups {
		tgts := make([]BlockID, 0, len(fx.callees))
		for _, c := range fx.callees {
			if c < 0 || c >= len(p.Funcs) {
				return fmt.Errorf("cfg: indirect call in block %d to unknown function %d", fx.blk, c)
			}
			tgts = append(tgts, p.Funcs[c].Entry)
		}
		b := &p.Blocks[fx.blk]
		b.IndirectTargets = tgts
		if len(tgts) > 0 {
			b.Target = tgts[0]
		}
	}
	p.callFixups = nil
	p.icallFixups = nil

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
		for _, id := range p.Funcs[fi].blocks {
			b := &p.Blocks[id]
			b.Addr = addr
			addr += b.Bytes()
		}
	}

	// Fall-through successors: the next block within the same function,
	// except for blocks that never fall through.
	for fi := range p.Funcs {
		blocks := p.Funcs[fi].blocks
		for i, id := range blocks {
			b := &p.Blocks[id]
			switch b.Kind {
			case BranchUncond, BranchReturn, BranchIndirectJump:
				b.Fall = NoBlock
			default:
				if i+1 < len(blocks) {
					b.Fall = blocks[i+1]
				} else {
					b.Fall = NoBlock
				}
			}
		}
	}
	// Build the address-ordered block index.
	p.addrOrder = make([]BlockID, 0, len(p.Blocks))
	for _, fi := range order {
		p.addrOrder = append(p.addrOrder, p.Funcs[fi].blocks...)
	}
	p.finalized = true
	return nil
}
