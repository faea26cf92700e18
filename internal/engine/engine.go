package engine

import (
	"ignite/internal/bpred"
	"ignite/internal/btb"
	"ignite/internal/cache"
	"ignite/internal/cfg"
	"ignite/internal/memsys"
	"ignite/internal/obs"
	"ignite/internal/tlb"
)

// Companion is a prefetcher or restore mechanism that runs alongside the
// core (Jukebox, Confluence, Ignite replay). The engine drives companions
// with elapsed cycles and front-end events; companions act on the shared
// hardware structures they were constructed with.
type Companion interface {
	Name() string
	// BeginInvocation is called when a new invocation starts on the core.
	BeginInvocation()
	// Tick grants the companion `cycles` cycles of background operation
	// at absolute time `now`.
	Tick(now uint64, cycles int)
	// OnInstrFetch observes every correct-path demand instruction line
	// fetch and the level that served it.
	OnInstrFetch(lineAddr uint64, lvl cache.Level, now uint64)
}

// Engine owns the modeled core: cache hierarchy, BPU (BTB + CBP), ITLB,
// the program being executed, and any companions. One Engine instance
// persists across invocations so that microarchitectural state carries over
// exactly as the lukewarm protocol dictates.
type Engine struct {
	prog *cfg.Program
	cfg  Config

	hier    *cache.Hierarchy
	btb     *btb.BTB
	cbp     *bpred.CBP
	itlb    *tlb.TLB
	traffic *memsys.Traffic

	companions []Companion
	// fetchComps/tickComps are the companions whose OnInstrFetch/Tick are
	// not declared no-ops (FetchPassive/TickPassive) — the only ones the
	// per-line and per-step fan-outs dispatch to.
	fetchComps []Companion
	tickComps  []Companion

	// tracer receives invocation/replay lifecycle events. nil (the
	// default) keeps the hot path free of both the virtual call and the
	// event construction — see the nil checks at every emission site.
	tracer obs.Tracer

	// invocationCheck, when set, audits the engine after every completed
	// invocation (the internal/check invariant verifier). A non-nil error
	// fails RunInvocation, so a conservation-law violation aborts the
	// protocol instead of silently corrupting downstream figures.
	invocationCheck func(*InvocationStats) error

	// now is the absolute cycle clock, monotonic across invocations;
	// nowf carries the fractional part. fetchClock tracks front-end time
	// only (base + fetch + speculation cycles, excluding back-end
	// stalls): the decoupled fetch engine keeps consuming instructions
	// while the back end is stalled, so prefetch timeliness must be
	// judged against fetch time.
	now        uint64
	nowf       float64
	fetchClock float64

	// pending tracks in-flight fill completion times by line address
	// so a demand hit on a just-issued prefetch or wrong-path fill is
	// charged the remaining latency and counted as a miss. It is an
	// open-addressed flat table: the count-zero fast path makes the
	// steady-state (nothing in flight) per-fetch probe a single load.
	pending pendingTable

	// Reusable per-invocation buffers. steps/evals are resized in place;
	// emitStep is the Walk callback, built once so RunInvocation does not
	// allocate a closure per invocation; walkScratch recycles the walker's
	// RNG and per-block counters.
	steps       []cfg.Step
	stepsShared bool // steps aliases a caller-owned trace: never append/truncate
	evals       []stepEval
	emitStep    func(cfg.Step) bool
	walkScratch cfg.WalkScratch

	// seen is an epoch-stamped set of branch sites executed during the
	// current invocation, indexed by block ID (a block is a member iff its
	// stamp equals seenGen): bumping seenGen empties the set in O(1), and
	// the dense index replaces two map operations per conditional branch.
	seen    []uint32
	seenGen uint32

	ras  *ras
	data dataStream
}

// stepEval memoizes the front-end's one-time BPU evaluation of a step; the
// lookahead and the commit path must agree on what the front-end did.
type stepEval struct {
	done      bool
	follows   bool // front-end continues on the correct path past this step
	btbHit    bool
	predTaken bool // direction the CBP predicted (conditionals)
	target    uint64
	boomerang bool // BTB miss repaired by Boomerang predecode
}

// New builds an engine for the given program and configuration.
func New(prog *cfg.Program, c Config) *Engine {
	traffic := memsys.NewTraffic()
	e := &Engine{
		prog:    prog,
		cfg:     c,
		hier:    cache.DefaultHierarchy(traffic),
		btb:     btb.MustNew(c.BTB),
		cbp:     bpred.NewCBP(),
		itlb:    tlb.MustNew(c.ITLB),
		traffic: traffic,
		seen:    make([]uint32, len(prog.Blocks)),
	}
	// Size the pending-fill table from the FTQ depth: the lookahead is the
	// main producer of in-flight lines (the table still grows if a
	// companion outruns the estimate).
	e.pending.init(4 * (c.FTQDepth + c.NLDegree + 1))
	if c.L2SizeBytes > 0 {
		e.hier.L2 = cache.MustNew(c.l2())
	}
	e.emitStep = func(s cfg.Step) bool {
		e.steps = append(e.steps, s)
		return true
	}
	e.hier.Lat = c.Lat
	e.ras = newRAS(c.RASDepth)
	e.data.init(&c.Data)
	return e
}

// Program returns the program under execution.
func (e *Engine) Program() *cfg.Program { return e.prog }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Hierarchy exposes the cache hierarchy.
func (e *Engine) Hierarchy() *cache.Hierarchy { return e.hier }

// BTB exposes the branch target buffer.
func (e *Engine) BTB() *btb.BTB { return e.btb }

// CBP exposes the conditional branch predictor.
func (e *Engine) CBP() *bpred.CBP { return e.cbp }

// ITLB exposes the instruction TLB.
func (e *Engine) ITLB() *tlb.TLB { return e.itlb }

// Traffic exposes the DRAM traffic tracker.
func (e *Engine) Traffic() *memsys.Traffic { return e.traffic }

// Now returns the absolute cycle clock.
func (e *Engine) Now() uint64 { return e.now }

// SetTracer installs an event tracer (nil disables tracing). Companions
// read it through Tracer to emit their own lifecycle events.
func (e *Engine) SetTracer(t obs.Tracer) { e.tracer = t }

// Tracer returns the installed tracer (nil when tracing is off).
func (e *Engine) Tracer() obs.Tracer { return e.tracer }

// SetInvocationCheck installs a post-invocation auditor (nil disables it).
// It runs after the invocation's stats are final and before RunInvocation
// returns; an error it reports is returned to the caller.
func (e *Engine) SetInvocationCheck(fn func(*InvocationStats) error) {
	e.invocationCheck = fn
}

// FetchPassive marks a Companion whose OnInstrFetch is a no-op. The engine
// skips marked companions on the per-line fetch path, which otherwise pays
// an interface dispatch per cache line for a method that does nothing
// (Ignite's replayer is the prime case: it ticks but never observes
// fetches).
type FetchPassive interface{ FetchPassive() }

// TickPassive marks a Companion whose Tick is a no-op; the engine skips it
// in the per-step tick fan-out (Confluence records and replays entirely
// from fetch events).
type TickPassive interface{ TickPassive() }

// AddCompanion attaches a companion prefetcher/restorer.
func (e *Engine) AddCompanion(c Companion) {
	e.companions = append(e.companions, c)
	if _, ok := c.(FetchPassive); !ok {
		e.fetchComps = append(e.fetchComps, c)
	}
	if _, ok := c.(TickPassive); !ok {
		e.tickComps = append(e.tickComps, c)
	}
}

// Thrash models interleaved executions of other functions: all caches, the
// BTB, the ITLB and the TAGE tables are flushed and the bimodal predictor
// is overwritten with random state (the paper's Section 5.3 methodology).
func (e *Engine) Thrash(seed uint64) {
	e.hier.FlushAll()
	e.btb.Flush()
	e.itlb.Flush()
	e.cbp.FlushAll(seed)
	e.ras.reset()
	e.pending.clear()
}

// ThrashSelective flushes like Thrash but optionally preserves the BTB,
// BIM or TAGE contents across the thrash — the warm-state sensitivity
// studies of Figures 4 and 5.
func (e *Engine) ThrashSelective(seed uint64, keepBTB, keepBIM, keepTAGE bool) {
	var btbState *btb.Snapshot
	if keepBTB {
		btbState = e.btb.Snapshot()
	}
	var cbpState *bpred.State
	if keepBIM || keepTAGE {
		cbpState = e.cbp.Snapshot(keepBIM, keepTAGE)
	}

	e.Thrash(seed)

	if keepBTB {
		e.btb.Restore(btbState)
	}
	if cbpState != nil {
		e.cbp.Restore(cbpState)
	}
}

// NotePendingLine lets companions report the completion time of prefetches
// they issued, so a demand access arriving before completion is charged the
// remaining latency. extraLat is added on top of the level's fill latency
// (e.g. Confluence's metadata lookup).
func (e *Engine) NotePendingLine(la uint64, from cache.Level, extraLat int) {
	lat := extraLat
	switch from {
	case cache.LvlL2:
		lat += e.cfg.Lat.L2
	case cache.LvlLLC:
		lat += e.cfg.Lat.LLC
	case cache.LvlMem:
		lat += e.cfg.Lat.Mem
	}
	if lat <= 0 {
		return
	}
	done := uint64(e.fetchClock) + uint64(lat)
	e.pending.noteMin(la, pendingFill{done: done, from: from})
}

// ResetStats clears every statistics counter (between warm-up and
// measurement) without touching microarchitectural contents.
func (e *Engine) ResetStats() {
	e.hier.ResetStats()
	e.btb.ResetStats()
	e.cbp.ResetStats()
	e.itlb.ResetStats()
	e.traffic.Reset()
}
