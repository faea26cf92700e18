// Package cfg defines the synthetic program representation used throughout
// the simulator: address-mapped basic blocks organized into functions, the
// structured AST from which functions are lowered into blocks and walk code,
// and a random program generator calibrated to serverless-function working
// sets.
//
// The paper's workloads are real Python/NodeJS/Go serverless functions run
// under gem5. We have no binaries, so we substitute synthetic programs whose
// static and dynamic control-flow properties (instruction working set,
// taken-branch working set, branch bias distribution, call depth, loop
// structure) match the paper's Figure 2 characterization. Lukewarm-invocation
// behaviour depends on exactly these properties, not on program semantics.
package cfg

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// InstrBytes is the fixed instruction width of the synthetic ISA. The paper
// simulates x86 (variable length); using a fixed width changes nothing about
// front-end pressure because working sets are calibrated in bytes.
const InstrBytes = 4

// CacheLineBytes is the line size assumed when reasoning about code layout.
const CacheLineBytes = 64

// BlockID identifies a basic block within a Program. The zero Program has no
// blocks; NoBlock marks absent successors.
type BlockID int32

// NoBlock is the nil BlockID.
const NoBlock BlockID = -1

// BranchKind classifies a basic block's terminating control transfer.
type BranchKind uint8

const (
	// BranchNone: the block falls through to the next block with no
	// control-flow instruction.
	BranchNone BranchKind = iota
	// BranchCond: conditional branch; taken with probability Bias.
	BranchCond
	// BranchUncond: unconditional direct jump, always taken.
	BranchUncond
	// BranchCall: direct call, always taken; pushes a return address.
	BranchCall
	// BranchReturn: function return; target is dynamic (return address
	// stack).
	BranchReturn
	// BranchIndirectJump: indirect jump (switch table, interpreter
	// dispatch); target chosen among IndirectTargets.
	BranchIndirectJump
	// BranchIndirectCall: indirect call (virtual dispatch, function
	// pointer); like a call but with a dynamic target.
	BranchIndirectCall
)

// String returns a short human-readable name for the branch kind.
func (k BranchKind) String() string {
	switch k {
	case BranchNone:
		return "none"
	case BranchCond:
		return "cond"
	case BranchUncond:
		return "uncond"
	case BranchCall:
		return "call"
	case BranchReturn:
		return "return"
	case BranchIndirectJump:
		return "ijump"
	case BranchIndirectCall:
		return "icall"
	default:
		return fmt.Sprintf("BranchKind(%d)", uint8(k))
	}
}

// IsBranch reports whether the kind is an actual control-flow instruction
// (anything but fall-through).
func (k BranchKind) IsBranch() bool { return k != BranchNone }

// IsCall reports whether the kind pushes a return address.
func (k BranchKind) IsCall() bool {
	return k == BranchCall || k == BranchIndirectCall
}

// IsIndirect reports whether the branch target is dynamic.
func (k BranchKind) IsIndirect() bool {
	return k == BranchIndirectJump || k == BranchIndirectCall || k == BranchReturn
}

// Block is a basic block: a run of straight-line instructions ended either
// by a control-flow instruction (Kind != BranchNone) or by falling through
// to the next block in address order. It holds no pointer, so the garbage
// collector never scans a program's block table.
type Block struct {
	Addr uint64 // address of the first instruction
	// Bias is the probability the terminator is taken; meaningful only
	// for BranchCond.
	Bias     float64
	ID       BlockID
	NumInstr int32 // instruction count, including the terminator if any
	// Target is the taken destination for direct branches (cond, uncond,
	// call) and the statically most likely destination for indirect
	// branches (used only as layout metadata; dynamic targets come from
	// the walker). NoBlock for returns and fall-through blocks.
	Target BlockID
	// Fall is the not-taken / fall-through successor in address order.
	// NoBlock for the last block of a function (the return block) and
	// for unconditional transfers.
	Fall BlockID
	// Func is the index of the function that owns this block.
	Func int32
	// tgtOff and tgtN locate the block's indirect targets in the
	// program's shared target table (see Program.IndirectTargets).
	tgtOff, tgtN int32
	Kind         BranchKind
}

// Bytes returns the code size of the block in bytes.
func (b *Block) Bytes() uint64 { return uint64(b.NumInstr) * InstrBytes }

// BranchPC returns the address of the terminating instruction. For
// fall-through blocks it returns the last instruction's address, which is
// never used as a branch PC.
func (b *Block) BranchPC() uint64 {
	return b.Addr + uint64(b.NumInstr-1)*InstrBytes
}

// EndAddr returns the address one past the last instruction.
func (b *Block) EndAddr() uint64 {
	return b.Addr + uint64(b.NumInstr)*InstrBytes
}

// CanBeTaken reports whether the block's terminator can ever transfer
// control non-sequentially, i.e. whether it could occupy a BTB entry.
func (b *Block) CanBeTaken() bool {
	switch b.Kind {
	case BranchNone:
		return false
	case BranchCond:
		return b.Bias > 0
	default:
		return true
	}
}

// Function is a lowered function: the contiguous range of blocks
// Entry..Ret, in address order, and the walk code of its body.
type Function struct {
	Index int
	Name  string
	Entry BlockID
	Ret   BlockID // the single return block (last block of the function)

	code, codeEnd int32 // the body's walk code: Program.code[code:codeEnd]
}

// Program is a complete synthetic program: a set of functions lowered to
// address-mapped basic blocks, plus the walk code the trace walker runs.
// Every table is pointer-free.
type Program struct {
	Name   string
	Blocks []Block
	Funcs  []Function

	targets []BlockID // indirect targets, see IndirectTargets
	code    []op      // walk code, see walk.go
	floats  []float64 // the walk code's float operands
	ints    []int32   // the walk code's int operands

	// BaseAddr is the address of the first instruction.
	BaseAddr uint64
	// LayoutSeed, when nonzero, shuffles the order functions are laid
	// out in the address space at Finalize. Real binaries' link order is
	// uncorrelated with dynamic call order, which is what defeats pure
	// next-line prefetching across function boundaries.
	LayoutSeed uint64

	finalized bool
}

// NewProgram creates an empty program with the conventional code base
// address.
func NewProgram(name string) *Program {
	return &Program{Name: name, BaseAddr: 0x400000}
}

// Block returns the block with the given ID. It panics on NoBlock; callers
// must check first.
func (p *Program) Block(id BlockID) *Block { return &p.Blocks[id] }

// IndirectTargets returns the possible dynamic destinations of b's indirect
// jump or call, in lowering order (empty for any other block).
func (p *Program) IndirectTargets(b *Block) []BlockID {
	return p.targets[b.tgtOff : b.tgtOff+b.tgtN : b.tgtOff+b.tgtN]
}

// NumFuncs returns the number of functions.
func (p *Program) NumFuncs() int { return len(p.Funcs) }

// CodeBytes returns the total static code size in bytes.
func (p *Program) CodeBytes() uint64 {
	var total uint64
	for i := range p.Blocks {
		total += p.Blocks[i].Bytes()
	}
	return total
}

// NumInstr returns the total static instruction count.
func (p *Program) NumInstr() uint64 {
	var total uint64
	for i := range p.Blocks {
		total += uint64(p.Blocks[i].NumInstr)
	}
	return total
}

// StaticTakenBranchSites returns the number of static branch sites that can
// ever be taken — an upper bound on the program's BTB working set. Never-
// taken conditional branches are excluded, mirroring the paper's observation
// that they consume no BTB capacity.
func (p *Program) StaticTakenBranchSites() int {
	n := 0
	for i := range p.Blocks {
		if p.Blocks[i].CanBeTaken() {
			n++
		}
	}
	return n
}

// EndAddr returns one past the last code byte.
func (p *Program) EndAddr() uint64 {
	if len(p.Blocks) == 0 {
		return p.BaseAddr
	}
	return p.Blocks[len(p.Blocks)-1].EndAddr()
}

// Validate checks structural invariants: block IDs are consistent, targets
// and fall-throughs reference valid blocks, addresses are monotonically
// increasing and contiguous within functions, and every function ends in a
// return block. It returns the first violation found.
func (p *Program) Validate() error {
	if !p.finalized {
		return errors.New("cfg: program not finalized")
	}
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if b.ID != BlockID(i) {
			return fmt.Errorf("cfg: block %d has ID %d", i, b.ID)
		}
		if b.NumInstr <= 0 {
			return fmt.Errorf("cfg: block %d has %d instructions", i, b.NumInstr)
		}
		if b.Kind == BranchCond && (b.Bias < 0 || b.Bias > 1) {
			return fmt.Errorf("cfg: block %d bias %v out of range", i, b.Bias)
		}
		check := func(id BlockID, what string) error {
			if id == NoBlock {
				return nil
			}
			if id < 0 || int(id) >= len(p.Blocks) {
				return fmt.Errorf("cfg: block %d %s %d out of range", i, what, id)
			}
			return nil
		}
		if err := check(b.Target, "target"); err != nil {
			return err
		}
		if err := check(b.Fall, "fall"); err != nil {
			return err
		}
		for _, t := range p.IndirectTargets(b) {
			if err := check(t, "indirect target"); err != nil {
				return err
			}
		}
		switch b.Kind {
		case BranchCond, BranchUncond, BranchCall:
			if b.Target == NoBlock {
				return fmt.Errorf("cfg: block %d (%v) lacks a target", i, b.Kind)
			}
		case BranchIndirectJump, BranchIndirectCall:
			if b.tgtN == 0 {
				return fmt.Errorf("cfg: block %d (%v) lacks indirect targets", i, b.Kind)
			}
		}
	}
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		if f.Entry < 0 || f.Ret < f.Entry || int(f.Ret) >= len(p.Blocks) {
			return fmt.Errorf("cfg: function %d has bad block range %d..%d", fi, f.Entry, f.Ret)
		}
		if p.Block(f.Ret).Kind != BranchReturn {
			return fmt.Errorf("cfg: function %d does not end in a return", fi)
		}
		for id := f.Entry; id <= f.Ret; id++ {
			if p.Block(id).Func != int32(fi) {
				return fmt.Errorf("cfg: block %d claims func %d, owned by %d", id, p.Block(id).Func, fi)
			}
		}
	}
	// No two blocks overlap: walking the functions in layout order, every
	// block starts at or after the end of the one before it.
	order := make([]*Function, len(p.Funcs))
	for fi := range p.Funcs {
		order[fi] = &p.Funcs[fi]
	}
	slices.SortFunc(order, func(a, b *Function) int {
		return cmp.Compare(p.Block(a.Entry).Addr, p.Block(b.Entry).Addr)
	})
	var prev *Block
	for _, f := range order {
		for id := f.Entry; id <= f.Ret; id++ {
			cur := p.Block(id)
			if prev != nil && cur.Addr < prev.EndAddr() {
				return fmt.Errorf("cfg: block %d addr %#x overlaps block %d", cur.ID, cur.Addr, prev.ID)
			}
			prev = cur
		}
	}
	return nil
}
