package cfg

import (
	"fmt"
	"math/rand/v2"
)

// Step is one dynamic basic-block execution, packed into 4 bytes as
// block<<1 | taken. Taken reports whether the block's terminator
// transferred control non-sequentially; for taken branches the dynamic
// target is the next step's block.
type Step uint32

// NewStep packs an execution of block b.
func NewStep(b BlockID, taken bool) Step {
	s := Step(b) << 1
	if taken {
		s |= 1
	}
	return s
}

// Block returns the executed block.
func (s Step) Block() BlockID { return BlockID(s >> 1) }

// Taken reports whether the block's terminator was taken.
func (s Step) Taken() bool { return s&1 != 0 }

// op is one instruction of a function's walk code, which lowering emits in
// pre-order: a construct's op is followed by its parts, and size spans the
// construct, so the walker can skip any part it does not execute. A Seq
// emits no op of its own: a part is a run of ops executed in order.
type op struct {
	kind opKind
	blk  BlockID // the block the op steps: straight, jump, cond, latch, call or dispatch
	size int32   // ops in the construct, this one and its parts included
	// n is an If's then-part length in ops (the else part fills the rest
	// of size), or a Switch's or IndirectCall's number of alternatives.
	n int32
	// arg is an If's ThenBias, a Loop's MeanTrips (both as float
	// indices), a periodic If's period, a Call's callee, or the int
	// index of a Switch's case lengths or an IndirectCall's callees.
	arg int32
	w   int32 // float index of a Switch's or IndirectCall's weights; -1 draws uniformly
}

type opKind uint8

const (
	opStraight     opKind = iota // step blk, not taken
	opJump                       // step blk, taken
	opIf                         // draw Float64 < ThenBias, step the cond, run a part
	opIfPeriodic                 // count the cond's executions instead of drawing
	opLoop                       // draw a jittered trip count, then run the body and latch
	opLoopFixed                  // exactly round(MeanTrips) trips, no draw
	opCall                       // step blk, walk the callee
	opIndirectCall               // draw a callee, step blk, walk it
	opSwitch                     // draw a case, step the dispatch, run the case
)

// WalkOptions controls dynamic trace generation.
type WalkOptions struct {
	// Seed drives every random decision (branch directions, loop trip
	// counts, indirect targets). The same seed reproduces the same trace
	// bit-for-bit; different seeds model distinct invocations of the same
	// function with high control-flow commonality.
	Seed uint64
	// MaxInstr stops the walk once this many instructions have been
	// emitted (0 = unlimited). Models the finite length of a serverless
	// invocation.
	MaxInstr uint64
	// MaxDepth bounds the call depth (default 128). Exceeding it is an
	// error: generated programs have DAG call graphs and bounded depth.
	MaxDepth int
	// Scratch, when non-nil, supplies reusable walk storage (RNG and
	// per-block execution counters) so repeated walks of the same program
	// allocate nothing. A scratch must not be shared between concurrent
	// walks; results are bit-identical with or without one.
	Scratch *WalkScratch
}

// WalkScratch holds the allocation-heavy state of a walk for reuse across
// invocations. The zero value is ready to use.
type WalkScratch struct {
	pcg        *rand.PCG
	rng        *rand.Rand
	execCounts []uint32
}

// rand reseeds (or lazily builds) the scratch RNG for a new walk.
func (s *WalkScratch) rand(seed uint64) *rand.Rand {
	if s.pcg == nil {
		s.pcg = rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
		s.rng = rand.New(s.pcg)
	} else {
		s.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
	}
	return s.rng
}

// counts returns a zeroed per-block counter slice of length n.
func (s *WalkScratch) counts(n int) []uint32 {
	if cap(s.execCounts) < n {
		s.execCounts = make([]uint32, n)
	} else {
		s.execCounts = s.execCounts[:n]
		clear(s.execCounts)
	}
	return s.execCounts
}

// WalkResult summarizes a completed walk.
type WalkResult struct {
	Instrs    uint64 // dynamic instructions emitted
	Steps     uint64 // dynamic blocks emitted
	Truncated bool   // stopped by MaxInstr or by the emit callback
}

// ErrDepth is returned when the walk exceeds MaxDepth.
var ErrDepth = fmt.Errorf("cfg: call depth limit exceeded")

type walker struct {
	p     *Program
	rng   *rand.Rand
	emit  func(Step) bool
	opt   WalkOptions
	res   WalkResult
	depth int
	err   error
	// execCounts tracks per-block execution counts for deterministic
	// periodic branches, indexed by BlockID.
	execCounts []uint32
}

// Walk generates a dynamic execution trace of the function with index entry,
// invoking emit for every executed basic block in order. emit may return
// false to stop the walk early. Walk reports the trace size and whether it
// was truncated.
func (p *Program) Walk(entry int, opt WalkOptions, emit func(Step) bool) (WalkResult, error) {
	if !p.finalized {
		return WalkResult{}, fmt.Errorf("cfg: walk of non-finalized program")
	}
	if entry < 0 || entry >= len(p.Funcs) {
		return WalkResult{}, fmt.Errorf("cfg: walk entry %d out of range", entry)
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = 128
	}
	w := walker{
		p:    p,
		emit: emit,
		opt:  opt,
	}
	if opt.Scratch != nil {
		w.rng = opt.Scratch.rand(opt.Seed)
		w.execCounts = opt.Scratch.counts(len(p.Blocks))
	} else {
		w.rng = rand.New(rand.NewPCG(opt.Seed, opt.Seed^0x9e3779b97f4a7c15))
		w.execCounts = make([]uint32, len(p.Blocks))
	}
	w.walkFunc(int32(entry))
	return w.res, w.err
}

// step emits one block execution; it returns false when the walk must stop.
func (w *walker) step(blk BlockID, taken bool) bool {
	b := &w.p.Blocks[blk]
	if !w.emit(NewStep(blk, taken)) {
		w.res.Truncated = true
		return false
	}
	w.res.Steps++
	w.res.Instrs += uint64(b.NumInstr)
	if w.opt.MaxInstr > 0 && w.res.Instrs >= w.opt.MaxInstr {
		w.res.Truncated = true
		return false
	}
	return true
}

func (w *walker) walkFunc(fi int32) bool {
	if w.depth >= w.opt.MaxDepth {
		w.err = ErrDepth
		return false
	}
	w.depth++
	defer func() { w.depth-- }()
	f := &w.p.Funcs[fi]
	return w.run(f.code, f.codeEnd) && w.step(f.Ret, true)
}

// run executes the walk code in code[pc:end], one construct at a time. It
// draws exactly as walking the AST did: an If draws (or counts) before its
// cond step, a Loop draws its trips before its body, and a Switch or
// IndirectCall draws its index before its step.
func (w *walker) run(pc, end int32) bool {
	for ; pc < end; pc += w.p.code[pc].size {
		o := &w.p.code[pc]
		switch o.kind {
		case opStraight, opJump:
			if !w.step(o.blk, o.kind == opJump) {
				return false
			}
		case opIf, opIfPeriodic:
			var thenTaken bool
			if o.kind == opIfPeriodic {
				cnt := w.execCounts[o.blk]
				w.execCounts[o.blk]++
				thenTaken = cnt%uint32(o.arg) != 0
			} else {
				thenTaken = w.rng.Float64() < w.p.floats[o.arg]
			}
			// The lowered conditional is taken when control skips the
			// then-part.
			if !w.step(o.blk, !thenTaken) {
				return false
			}
			lo, hi := pc+1, pc+1+o.n // the then part
			if !thenTaken {
				lo, hi = hi, pc+o.size // the else part
			}
			if !w.run(lo, hi) {
				return false
			}
		case opLoop, opLoopFixed:
			var trips int
			if mean := w.p.floats[o.arg]; o.kind == opLoopFixed {
				trips = max(int(mean+0.5), 1)
			} else {
				trips = w.sampleTrips(mean)
			}
			for i := 0; i < trips; i++ {
				if !w.run(pc+1, pc+o.size) || !w.step(o.blk, i < trips-1) {
					return false
				}
			}
		case opCall:
			if !w.step(o.blk, true) || !w.walkFunc(o.arg) {
				return false
			}
		case opIndirectCall:
			callee := w.p.ints[o.arg+w.sampleIndex(o)]
			if !w.step(o.blk, true) || !w.walkFunc(callee) {
				return false
			}
		case opSwitch:
			ci := w.sampleIndex(o)
			if !w.step(o.blk, true) {
				return false
			}
			lens := w.p.ints[o.arg : o.arg+o.n]
			part := pc + 1
			for _, l := range lens[:ci] {
				part += l
			}
			if !w.run(part, part+lens[ci]) {
				return false
			}
		}
	}
	return true
}

// sampleTrips draws a loop trip count around the mean with ±25% jitter,
// modeling the stable trip counts typical of real code.
func (w *walker) sampleTrips(mean float64) int {
	if mean <= 1 {
		return 1
	}
	t := int(mean*(0.75+0.5*w.rng.Float64()) + 0.5)
	if t < 1 {
		t = 1
	}
	return t
}

// sampleIndex draws one of o's n alternatives according to its weights;
// missing weights (nil or mismatched at lowering) yield a uniform draw.
func (w *walker) sampleIndex(o *op) int32 {
	n := o.n
	if n <= 1 {
		return 0
	}
	if o.w < 0 {
		return int32(w.rng.IntN(int(n)))
	}
	weights := w.p.floats[o.w : o.w+n]
	var total float64
	for _, wt := range weights {
		total += wt
	}
	if total <= 0 {
		return int32(w.rng.IntN(int(n)))
	}
	x := w.rng.Float64() * total
	for i, wt := range weights {
		x -= wt
		if x < 0 {
			return int32(i)
		}
	}
	return n - 1
}
