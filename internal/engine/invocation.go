package engine

import (
	"errors"
	"fmt"

	"ignite/internal/btb"
	"ignite/internal/cache"
	"ignite/internal/cfg"
	"ignite/internal/obs"
	"ignite/internal/stats"
)

// InvocationOptions controls one simulated invocation.
type InvocationOptions struct {
	// Seed drives the dynamic trace (branch outcomes, loop trips) and
	// the data stream.
	Seed uint64
	// MaxInstr caps the invocation length (0 = run to completion).
	MaxInstr uint64
	// Trace optionally supplies the committed trace for this (Seed,
	// MaxInstr) pair, exactly as Program.Walk would generate it, so callers
	// simulating many configurations of one workload can generate each
	// trace once and share it. The engine reads the slice without
	// modifying it; TraceResult must carry the corresponding walk summary.
	Trace       []cfg.Step
	TraceResult cfg.WalkResult
}

// InvocationStats reports everything measured during one invocation.
type InvocationStats struct {
	Instrs uint64
	Steps  uint64
	Cycles float64
	Stack  stats.CPIStack

	L1IMisses          uint64 // correct-path demand L1-I misses
	OffChipInstrMisses uint64 // correct-path instruction fetches from DRAM
	ITLBMisses         uint64
	RASOverflows       uint64 // calls that overwrote a live RAS entry

	CondBranches       uint64
	TakenBranches      uint64
	BTBMisses          uint64 // taken branches unidentified by the BTB
	TargetMispredicts  uint64 // identified but wrong target (indirect/alias)
	CondMispredicts    uint64
	CondMispredInitial uint64 // mispredictions on a branch's first execution this invocation
	InducedMispredicts uint64 // mispredictions caused by an incorrect Ignite BIM initialization
	Resteers           uint64
	BoomerangFills     uint64 // BTB misses repaired by Boomerang predecode

	Truncated bool
}

// CPI returns cycles per instruction.
func (s *InvocationStats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return s.Cycles / float64(s.Instrs)
}

// L1IMPKI returns L1 instruction misses per kilo-instruction.
func (s *InvocationStats) L1IMPKI() float64 { return stats.MPKI(s.L1IMisses, s.Instrs) }

// BTBMPKI returns BTB misses (unidentified taken branches plus target
// mispredictions) per kilo-instruction.
func (s *InvocationStats) BTBMPKI() float64 {
	return stats.MPKI(s.BTBMisses+s.TargetMispredicts, s.Instrs)
}

// CBPMPKI returns conditional direction mispredictions per kilo-instruction.
func (s *InvocationStats) CBPMPKI() float64 { return stats.MPKI(s.CondMispredicts, s.Instrs) }

// BPUMPKI returns the combined BPU miss rate (BTB + CBP), the quantity the
// paper plots as "BPU MPKI".
func (s *InvocationStats) BPUMPKI() float64 { return s.BTBMPKI() + s.CBPMPKI() }

// ErrCycleBudget reports an invocation that exceeded Config.MaxCycles —
// the runaway-simulation watchdog. Callers classify it as a deadline-style
// failure (non-transient: retrying a deterministic runaway reruns it).
var ErrCycleBudget = errors.New("cycle budget exceeded")

// RunInvocation simulates one invocation of the program's handler on the
// current microarchitectural state.
func (e *Engine) RunInvocation(opt InvocationOptions) (*InvocationStats, error) {
	st := new(InvocationStats)
	if err := e.runInvocationInto(st, opt); err != nil {
		return nil, err
	}
	return st, nil
}

// RunInvocations simulates a train of invocations back to back — a cell's
// whole warm-up/record/measure sequence in one call. All results share one
// backing array, so the per-invocation result allocation of the serial path
// is paid once per train. between, when non-nil, runs immediately before
// opts[i] is read and simulated: the slot where the lukewarm protocol
// thrashes state, arms record/replay mechanisms and resets traffic
// accounting. Because opts[i] is read only after the hook returns, callers
// may populate it inside the hook (e.g. to attach a lazily generated
// trace). Results are bit-identical to calling RunInvocation in a loop with
// the same interleaved actions.
func (e *Engine) RunInvocations(opts []InvocationOptions, between func(i int) error) ([]*InvocationStats, error) {
	sts := make([]InvocationStats, len(opts))
	out := make([]*InvocationStats, len(opts))
	for i := range opts {
		if between != nil {
			if err := between(i); err != nil {
				return nil, err
			}
		}
		if err := e.runInvocationInto(&sts[i], opts[i]); err != nil {
			return nil, fmt.Errorf("engine: invocation %d of %d: %w", i, len(opts), err)
		}
		out[i] = &sts[i]
	}
	return out, nil
}

// runInvocationInto is the body shared by RunInvocation and RunInvocations;
// it overwrites *st with the invocation's measurements.
func (e *Engine) runInvocationInto(st *InvocationStats, opt InvocationOptions) error {
	// Materialize the committed trace; the decoupled front-end needs to
	// look ahead of commit along it.
	var res cfg.WalkResult
	if opt.Trace != nil {
		e.steps = opt.Trace
		e.stepsShared = true
		res = opt.TraceResult
	} else {
		if e.stepsShared {
			e.steps = nil // don't clobber the shared backing array
			e.stepsShared = false
		}
		e.steps = e.steps[:0]
		var err error
		res, err = e.prog.Walk(0,
			cfg.WalkOptions{Seed: opt.Seed, MaxInstr: opt.MaxInstr, Scratch: &e.walkScratch},
			e.emitStep)
		if err != nil {
			return fmt.Errorf("engine: trace generation: %w", err)
		}
	}
	n := len(e.steps)
	if n == 0 {
		return fmt.Errorf("engine: empty trace")
	}
	if cap(e.evals) < n {
		e.evals = make([]stepEval, n)
	} else {
		e.evals = e.evals[:n]
		clear(e.evals)
	}

	e.data.beginInvocation(opt.Seed)
	// The trace may have been truncated mid-call-chain last invocation;
	// a fresh invocation starts with an empty architectural stack.
	e.ras.reset()
	for _, c := range e.companions {
		c.BeginInvocation()
	}

	if e.tracer != nil {
		e.tracer.InvocationStart(obs.InvocationStartEvent{Seed: opt.Seed, Now: e.now})
	}

	*st = InvocationStats{
		Instrs:    res.Instrs,
		Steps:     res.Steps,
		Truncated: res.Truncated,
	}
	e.seenGen++
	if e.seenGen == 0 { // stamp wrapped: stale entries could alias
		clear(e.seen)
		e.seenGen = 1
	}

	lastLine := ^uint64(0)
	lookPtr := 0    // next step the front-end lookahead will prefetch
	blockedAt := -1 // step index of an unresolved front-end divergence
	startNow := e.nowf

	for i := 0; i < n; i++ {
		if e.cfg.MaxCycles != 0 && e.nowf-startNow > float64(e.cfg.MaxCycles) {
			return fmt.Errorf(
				"engine: invocation seed %d aborted after %.0f cycles at step %d/%d (budget %d): %w",
				opt.Seed, e.nowf-startNow, i, n, e.cfg.MaxCycles, ErrCycleBudget)
		}
		b := e.prog.Block(e.steps[i].Block())

		// 1. Extend the BPU-gated prefetch lookahead.
		if e.cfg.FDPEnabled && !e.cfg.PerfectL1I && blockedAt < 0 {
			if lookPtr < i+1 {
				lookPtr = i + 1
			}
			limit := i + e.cfg.FTQDepth
			for lookPtr < n && lookPtr <= limit {
				j := lookPtr
				bj := e.prog.Block(e.steps[j].Block())
				e.prefetchBlockLines(bj)
				ev := e.evalStep(j, bj, true)
				lookPtr++
				if !ev.follows {
					blockedAt = j
					break
				}
			}
		}

		// 2. Demand-fetch the block's cache lines.
		fetchStall := e.fetchBlock(b, &lastLine, st)

		// 3. Resolve the terminator against the front-end's decision.
		penalty, bubble, resteer := e.resolveBranch(i, b, st)
		fetchStall += bubble
		if resteer {
			st.Resteers++
			e.wrongPathBurst(i, b)
			blockedAt = -1
			lookPtr = i + 1
		} else if blockedAt == i {
			// The lookahead gate was pessimistic (its prediction was
			// made with older state); resume without a flush.
			blockedAt = -1
			lookPtr = i + 1
		}

		// 4. Data-side accesses.
		backend := 0.0
		for k := e.data.opsFor(int(b.NumInstr)); k > 0; k-- {
			backend += e.dataAccess()
		}

		// 5. Cycle accounting.
		base := float64(b.NumInstr) / float64(e.cfg.Width)
		st.Stack.Retiring += base
		st.Stack.Fetch += fetchStall
		st.Stack.BadSpec += penalty
		st.Stack.Backend += backend
		stepCycles := base + fetchStall + penalty + backend
		e.nowf += stepCycles
		e.now = uint64(e.nowf)
		e.fetchClock += base + fetchStall + penalty

		for _, c := range e.tickComps {
			c.Tick(e.now, int(stepCycles)+1)
		}
	}

	st.Cycles = st.Stack.Total()
	if e.tracer != nil {
		e.tracer.InvocationEnd(obs.InvocationEndEvent{
			Seed: opt.Seed, Now: e.now,
			Instrs: st.Instrs, Cycles: st.Cycles, CPI: st.CPI(),
		})
	}
	if e.invocationCheck != nil {
		if err := e.invocationCheck(st); err != nil {
			return fmt.Errorf("engine: invariant check after invocation (seed %d): %w", opt.Seed, err)
		}
	}
	return nil
}

// fetchBlock issues demand fetches for every cache line the block spans and
// returns the exposed fetch stall cycles.
func (e *Engine) fetchBlock(b *cfg.Block, lastLine *uint64, st *InvocationStats) float64 {
	if e.cfg.PerfectL1I {
		return 0
	}
	stall := 0.0
	start := b.Addr &^ (cache.LineBytesConst - 1)
	end := b.BranchPC() &^ (cache.LineBytesConst - 1)
	for la := start; la <= end; la += cache.LineBytesConst {
		if la == *lastLine {
			continue
		}
		*lastLine = la

		if extra, hit := e.itlb.Translate(la); !hit {
			st.ITLBMisses++
			stall += float64(extra)
		}

		lat, lvl, firstTouch := e.hier.FetchInstr(la, false)
		if lvl == cache.LvlL1I {
			// The line may still be in flight from a recent prefetch
			// or wrong-path fill: the demand access merges with the
			// outstanding miss, paying the remaining latency —
			// architecturally still an L1-I miss served by the level
			// the fill came from.
			effLvl := cache.LvlL1I
			if pf, ok := e.takePending(la); ok {
				if ft := float64(pf.done); ft > e.fetchClock {
					stall += ft - e.fetchClock
					st.L1IMisses++
					effLvl = pf.from
					if pf.from == cache.LvlMem {
						st.OffChipInstrMisses++
					}
				}
			}
			if firstTouch && e.cfg.NLEnabled && e.cfg.NLChainOnHit {
				e.nextLinePrefetch(la)
			}
			for _, c := range e.fetchComps {
				c.OnInstrFetch(la, effLvl, e.now)
			}
			continue
		}
		st.L1IMisses++
		if lvl == cache.LvlMem {
			st.OffChipInstrMisses++
		}
		stall += float64(lat - e.cfg.Lat.L1I)
		if e.cfg.NLEnabled {
			e.nextLinePrefetch(la)
		}
		for _, c := range e.fetchComps {
			c.OnInstrFetch(la, lvl, e.now)
		}
	}
	return stall
}

// nextLinePrefetch implements the aggressive baseline next-line prefetcher:
// triggered on L1-I misses and on first hits to prefetched lines.
func (e *Engine) nextLinePrefetch(la uint64) {
	for d := 1; d <= e.cfg.NLDegree; d++ {
		next := la + uint64(d)*cache.LineBytesConst
		if from, issued := e.hier.PrefetchInstr(next, cache.SrcNextLine, cache.LvlL1I); issued {
			e.notePending(next, from)
		}
	}
}

// prefetchBlockLines is the FDP prefetch path: the lines of an upcoming
// block are brought into the L1-I.
func (e *Engine) prefetchBlockLines(b *cfg.Block) {
	start := b.Addr &^ (cache.LineBytesConst - 1)
	end := b.BranchPC() &^ (cache.LineBytesConst - 1)
	for la := start; la <= end; la += cache.LineBytesConst {
		if from, issued := e.hier.PrefetchInstr(la, cache.SrcFDP, cache.LvlL1I); issued {
			e.notePending(la, from)
		}
	}
}

// takePending consumes la's in-flight fill record, if any. The count check
// keeps the steady-state fetch path (nothing in flight) to one load.
func (e *Engine) takePending(la uint64) (pendingFill, bool) {
	if e.pending.n == 0 {
		return pendingFill{}, false
	}
	return e.pending.take(la)
}

// notePending records when an in-flight fill will complete.
func (e *Engine) notePending(la uint64, from cache.Level) {
	lat := 0
	switch from {
	case cache.LvlL2:
		lat = e.cfg.Lat.L2
	case cache.LvlLLC:
		lat = e.cfg.Lat.LLC
	case cache.LvlMem:
		lat = e.cfg.Lat.Mem
	}
	if lat == 0 {
		return
	}
	done := uint64(e.fetchClock) + uint64(lat)
	e.pending.noteMin(la, pendingFill{done: done, from: from})
}

// evalStep performs (or recalls) the front-end's one-time BPU evaluation of
// a step: BTB lookup, direction prediction, Boomerang repair — deciding
// whether the predicted stream continues on the correct path. Boomerang can
// only repair BTB misses while the lookahead is running (inLookahead); a
// lazy commit-time evaluation after a resteer sees the raw BTB miss.
func (e *Engine) evalStep(j int, b *cfg.Block, inLookahead bool) *stepEval {
	ev := &e.evals[j]
	if ev.done {
		return ev
	}
	ev.done = true
	taken := e.steps[j].Taken()
	if b.Kind == cfg.BranchNone {
		ev.follows = true
		return ev
	}
	pc := b.BranchPC()
	actualTarget := e.actualTarget(j, b)

	if e.cfg.PerfectBTB {
		ev.btbHit = true
		ev.target = actualTarget
		if b.Kind == cfg.BranchCond {
			ev.predTaken = e.cbp.Predict(pc)
			ev.follows = ev.predTaken == taken
		} else {
			ev.follows = true
		}
		return ev
	}

	ent, hit := e.btb.Lookup(pc)
	ev.btbHit = hit
	if hit {
		ev.target = ent.Target
	}

	// Boomerang repairs BTB misses for direct branches (and returns,
	// identified by predecode) by fetching and predecoding the block.
	if !hit && inLookahead && e.cfg.BoomerangEnabled && b.Kind != cfg.BranchIndirectJump && b.Kind != cfg.BranchIndirectCall {
		tgt := uint64(0)
		if b.Target != cfg.NoBlock {
			tgt = e.prog.Block(b.Target).Addr
		}
		e.btb.Insert(btb.Entry{PC: pc, Target: tgt, Kind: b.Kind}, false)
		if from, issued := e.hier.PrefetchInstr(tgt, cache.SrcBoomerang, cache.LvlL1I); issued {
			e.notePending(tgt, from)
		}
		ev.btbHit = true
		ev.boomerang = true
		ev.target = tgt
	}

	switch b.Kind {
	case cfg.BranchCond:
		// The lookahead gate uses the predictor's current state; the
		// commit path re-predicts with up-to-date history (run-ahead
		// BPUs update history speculatively, so on the correct path
		// their prediction state matches commit state).
		ev.predTaken = e.cbp.Predict(pc)
		if taken {
			ev.follows = ev.btbHit && ev.predTaken && ev.target == actualTarget
		} else {
			// A predicted-taken branch needs a BTB target to actually
			// redirect fetch; without one the front end falls through,
			// which happens to be correct.
			ev.follows = !(ev.predTaken && ev.btbHit)
		}
	case cfg.BranchUncond, cfg.BranchCall:
		ev.follows = ev.btbHit && ev.target == actualTarget
	case cfg.BranchReturn:
		// The RAS supplies the target once the BTB identifies the
		// return.
		ev.follows = ev.btbHit
	case cfg.BranchIndirectJump, cfg.BranchIndirectCall:
		ev.follows = ev.btbHit && ev.target == actualTarget
	}
	return ev
}

// actualTarget returns the dynamic destination of step j's terminator: the
// next block in the trace (or the static target for the final step).
func (e *Engine) actualTarget(j int, b *cfg.Block) uint64 {
	if !e.steps[j].Taken() {
		return 0
	}
	if j+1 < len(e.steps) {
		return e.prog.Block(e.steps[j+1].Block()).Addr
	}
	if b.Target != cfg.NoBlock {
		return e.prog.Block(b.Target).Addr
	}
	return 0
}

// resolveBranch commits step i's terminator: counts MPKI events, charges
// resteer penalties, trains the CBP, and inserts taken branches into the
// BTB (firing Ignite's record hook). It returns the bad-speculation
// penalty, any Boomerang fetch bubble, and whether the front end resteered.
func (e *Engine) resolveBranch(i int, b *cfg.Block, st *InvocationStats) (penalty, bubble float64, resteer bool) {
	if b.Kind == cfg.BranchNone {
		return 0, 0, false
	}
	fresh := !e.evals[i].done
	ev := e.evalStep(i, b, false)
	taken := e.steps[i].Taken()
	pc := b.BranchPC()
	actualTarget := e.actualTarget(i, b)

	if ev.boomerang {
		bubble = float64(e.cfg.BoomerangFillBubble)
		st.BoomerangFills++
	}

	switch b.Kind {
	case cfg.BranchCond:
		st.CondBranches++
		blk := e.steps[i].Block()
		seenBefore := e.seen[blk] == e.seenGen
		e.seen[blk] = e.seenGen
		predTaken := ev.predTaken
		if !fresh {
			// The eval came from the front-end lookahead; predictor
			// history has advanced since, so re-predict with commit-time
			// state. A fresh commit-time eval just made this exact
			// (read-only) Predict call, so its answer is reused as-is.
			predTaken = e.cbp.Predict(pc)
			ev.predTaken = predTaken
		}
		mispred := predTaken != taken
		if mispred {
			st.CondMispredicts++
			if !seenBefore {
				st.CondMispredInitial++
			}
			// A misprediction on an untrained Ignite-initialized
			// counter is an induced misprediction (Figure 9c) when
			// the bimodal drove the (wrong) prediction.
			if e.cbp.Bimodal().WasRestored(pc) && e.cbp.Bimodal().Predict(pc) == ev.predTaken {
				st.InducedMispredicts++
			}
		}
		if taken {
			st.TakenBranches++
			switch {
			case !ev.btbHit:
				st.BTBMisses++
				penalty = float64(e.cfg.MispredictPenalty)
				resteer = true
			case !predTaken:
				penalty = float64(e.cfg.MispredictPenalty)
				resteer = true
			case ev.target != actualTarget:
				st.TargetMispredicts++
				penalty = float64(e.cfg.MispredictPenalty)
				resteer = true
			}
		} else if predTaken && ev.btbHit {
			penalty = float64(e.cfg.MispredictPenalty)
			resteer = true
		}
		e.cbp.Update(pc, taken)

	case cfg.BranchUncond, cfg.BranchCall:
		st.TakenBranches++
		switch {
		case !ev.btbHit:
			st.BTBMisses++
			penalty = float64(e.cfg.DecodeResteerPenalty)
			resteer = true
		case ev.target != actualTarget:
			st.TargetMispredicts++
			penalty = float64(e.cfg.MispredictPenalty)
			resteer = true
		}

	case cfg.BranchReturn:
		st.TakenBranches++
		rasTarget, rasValid := e.ras.pop()
		switch {
		case !ev.btbHit:
			st.BTBMisses++
			penalty = float64(e.cfg.DecodeResteerPenalty)
			resteer = true
		case !e.cfg.PerfectBTB && actualTarget != 0 && (!rasValid || rasTarget != actualTarget):
			// Identified as a return but the RAS prediction is wrong
			// (overflowed or corrupted stack). The invocation's
			// outermost return (actualTarget 0, nothing below it on
			// the stack) is exempt, as is the ideal front end.
			st.TargetMispredicts++
			penalty = float64(e.cfg.MispredictPenalty)
			resteer = true
		}

	case cfg.BranchIndirectJump, cfg.BranchIndirectCall:
		st.TakenBranches++
		switch {
		case !ev.btbHit:
			st.BTBMisses++
			penalty = float64(e.cfg.MispredictPenalty)
			resteer = true
		case ev.target != actualTarget:
			st.TargetMispredicts++
			penalty = float64(e.cfg.MispredictPenalty)
			resteer = true
		}
	}

	if b.Kind.IsCall() {
		before := e.ras.overflows
		e.ras.push(b.EndAddr())
		st.RASOverflows += e.ras.overflows - before
	}
	if taken && !e.cfg.PerfectBTB {
		e.btb.Insert(btb.Entry{PC: pc, Target: actualTarget, Kind: b.Kind}, false)
	}
	return penalty, bubble, resteer
}

// wrongPathBurst models the sequential wrong-path fetches the front end
// issues past an undetected divergence: cache pollution and useless memory
// bandwidth, but no commit-path stall (they overlap the flush).
func (e *Engine) wrongPathBurst(i int, b *cfg.Block) {
	if e.cfg.PerfectL1I || e.cfg.WrongPathBurst <= 0 {
		return
	}
	ev := &e.evals[i]
	taken := e.steps[i].Taken()
	var start uint64
	switch {
	case taken && (!ev.btbHit || !ev.predTaken):
		// Front end sailed past the branch sequentially.
		start = b.EndAddr()
	case taken && ev.target != 0:
		// Went to a stale target.
		start = ev.target
	case !taken && ev.btbHit:
		// Redirected to the BTB target although the branch fell through.
		start = ev.target
	default:
		start = b.EndAddr()
	}
	// The wrong path advances only until the flush arrives: line hits cost
	// fetch cycles, and the first couple of misses saturate the fetch MSHRs
	// for the rest of the window. This bounds the (real) prefetch side
	// effect wrong-path execution has.
	la := start &^ (cache.LineBytesConst - 1)
	budget := float64(e.cfg.MispredictPenalty)
	misses := 0
	for k := 0; k < e.cfg.WrongPathBurst && budget > 0; k++ {
		addr := la + uint64(k)*cache.LineBytesConst
		if e.hier.L1I.Contains(addr) {
			budget -= 4 // consume the resident line
			continue
		}
		_, lvl, _ := e.hier.FetchInstr(addr, true)
		// The fill is in flight; a correct-path fetch arriving before it
		// completes still pays (most of) the miss latency.
		e.notePending(addr, lvl)
		misses++
		if misses >= 2 {
			break
		}
		budget -= 8
	}
}
