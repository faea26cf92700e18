package experiments

import (
	"context"
	"crypto/sha256"
	"errors"
	"runtime/debug"
	"sync"

	"ignite/internal/cfg"
	"ignite/internal/engine"
	"ignite/internal/faults"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// scratchPool recycles engine working buffers (trace, eval and walk scratch)
// across cells. Each cell builds a fresh engine, but the megabytes of
// per-invocation buffer the previous cell grew are reusable as-is; pooling
// them takes steady-state cell simulation from one large growth cycle per
// cell to near-zero buffer allocation. Scratch contents never affect
// results — buffers are attached length-zero and fully rewritten.
var scratchPool = sync.Pool{New: func() any { return new(engine.Scratch) }}

// CellCache memoizes the two deterministic, expensive artifacts of an
// experiment run across experiments:
//
//   - generated programs, keyed by the canonical key of the full workload
//     specification, built once per workload and shared read-only
//     (Program.Walk carries its own PCG state, so concurrent cells may walk
//     one program safely), each with the committed traces walked from it;
//   - simulation cells, keyed by CellSpec.Key: the workload spec, the
//     front-end configuration kind, the tweaks and the lukewarm mode.
//
// A cell is a pure function of its key — the engine seeds every RNG from the
// spec — so the nl/interleaved baseline that fig3, fig8, fig9a, fig11 and
// fig12 all need is simulated exactly once per RunAll instead of five times.
// Entries are computed single-flight: a second request for an in-flight key
// blocks until the first completes and shares its result. Cells are counted,
// loaded and saved by that named key, but simulated by their effective key
// (effectiveCell): a named cell the store does not hold joins or starts the
// effective key's flight, so fig12's fdp+ignite and the sweeps' Table-2
// points ride on the ignite cell fig8 simulates; a cell loaded from the
// store finishes its effective key's flight, so its twins join it too.
// Cells are also fed pre-generated committed traces: the walk depends only
// on the program and seed, never on the front-end configuration, so a
// workload's ~6 invocation traces are identical across every cell.
type CellCache struct {
	mu    *sync.Mutex // shared with forks, see fork
	progs map[string]*progEntry
	cells map[string]*cellEntry
	hits  int
	// flights memoizes simulations by effective key; parent, set on a
	// fork, is the cache whose flights the fork also reads (see flight).
	flights map[[sha256.Size]byte]*cellEntry
	parent  *CellCache
	// backing, when set, persists computed cells to (and restores them
	// from) a cross-run store — see SetBacking. Loads and saves happen
	// inside the entry's single-flight section, so hit accounting (and
	// therefore exported manifests) is identical between a cold run and a
	// warm-store rerun.
	backing CellBacking
	// remote, when set, delegates fresh cell computation out of process —
	// see SetRemote. The backing store is consulted first, so a
	// coordinator with a warm store never ships the cell over the wire.
	remote RemoteFunc
}

// CellBacking is a persistent cell store the cache reads through: Load
// returns the stored result for a key (ok=false on any miss, including a
// detected-corrupt record — the cache recomputes and Save repairs), and
// Save persists a freshly computed cell. Implementations must be safe for
// concurrent use; the experiments layer binds internal/store through this
// seam (see BindStore).
type CellBacking interface {
	Load(key string) (res CellPayload, ok bool)
	Save(key string, res CellPayload)
}

// CellPayload is the value of one computed cell: the lukewarm result plus
// the cell's flattened metric snapshot, captured as plain values so cached
// cells never pin an engine. It is what the cache memoizes, the store
// persists, the dist wire ships and the serving daemon answers from;
// lukewarm.Result is plain exported data, so a JSON round trip reproduces it
// bit-identically.
type CellPayload struct {
	Res *lukewarm.Result `json:"res"`
	// Metrics is the cell's registry snapshot (engine + mechanisms +
	// result aggregates), keyed by obs sample key. Figure code reads
	// specific keys (see the m* constants); the exporters ship the whole
	// map per cell.
	Metrics map[string]float64 `json:"metrics"`
}

// RemoteFunc computes one cell out of process (a distributed-sweep
// coordinator shipping the cell to a worker); key is cs.Key(). A transient
// error (anything exposing Transient() bool, e.g. a worker connection
// failure) is not cached: the entry is evicted so the scheduler's retry
// machinery gets a fresh attempt instead of the memoized failure.
type RemoteFunc func(ctx context.Context, key string, cs CellSpec, env CellEnv) (CellPayload, error)

// SetBacking installs a persistent store behind the cache. Must be set
// before the first cell request.
func (cc *CellCache) SetBacking(b CellBacking) { cc.backing = b }

// SetRemote installs an out-of-process compute delegate. Must be set
// before the first cell request.
func (cc *CellCache) SetRemote(fn RemoteFunc) { cc.remote = fn }

type progEntry struct {
	once sync.Once
	prog *cfg.Program
	err  error
	// traces memoizes the committed walks of prog (guarded by the cache's
	// mu), so releasing the entry drops them with the program.
	traces map[traceKey]*traceEntry
}

type traceKey struct{ seed, maxInstr uint64 }

type cellEntry struct {
	once sync.Once
	p    *CellPayload
	err  error
}

type traceEntry struct {
	once  sync.Once
	steps []cfg.Step
	res   cfg.WalkResult
	err   error
}

// NewCellCache returns an empty cache.
func NewCellCache() *CellCache {
	return &CellCache{
		mu:      new(sync.Mutex),
		progs:   make(map[string]*progEntry),
		cells:   make(map[string]*cellEntry),
		flights: make(map[[sha256.Size]byte]*cellEntry),
	}
}

// fork returns a cache with its own cell accounting (cells and hits) and
// its own flights that shares everything else with cc: the program and
// trace memo, the backing store and the remote delegate. The ablations run
// on a fork, so their cells persist and ship like the figures' while the
// shared cache's Stats — and so every exported manifest — never see them.
// A fork reads cc's flights but never adds to them: an ablation cell that
// simulates what a figure already did joins the figure's flight, and the
// ablation's own payloads die with the fork. A nil cc forks into a fresh
// cache.
func (cc *CellCache) fork() *CellCache {
	if cc == nil {
		return NewCellCache()
	}
	return &CellCache{mu: cc.mu, progs: cc.progs, cells: make(map[string]*cellEntry),
		flights: make(map[[sha256.Size]byte]*cellEntry), parent: cc, backing: cc.backing, remote: cc.remote}
}

// program returns the workload's generated program, building it at most once.
func (cc *CellCache) program(spec workload.Spec) (*cfg.Program, error) {
	e := cc.programEntry(spec)
	return e.prog, e.err
}

func (cc *CellCache) programEntry(spec workload.Spec) *progEntry {
	key := canonicalKey(spec)
	cc.mu.Lock()
	e, ok := cc.progs[key]
	if !ok {
		e = &progEntry{traces: make(map[traceKey]*traceEntry)}
		cc.progs[key] = e
	}
	cc.mu.Unlock()
	e.once.Do(func() { e.prog, _, e.err = spec.Build() })
	return e
}

// Release drops spec's program and every trace walked from it and keeps the
// cells; a cell still running on the program completes on its own reference.
// Only the serving daemon calls it, when a function has no batch in flight.
func (cc *CellCache) Release(spec workload.Spec) {
	cc.mu.Lock()
	delete(cc.progs, canonicalKey(spec))
	cc.mu.Unlock()
}

// Programs reports the number of program entries held.
func (cc *CellCache) Programs() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.progs)
}

// cell returns the simulated cell cs, whose key is cs.Key(), computing it
// at most once per unique key. The second return reports whether the cell
// was served from the cache (an entry another request already created). ctx
// bounds remote computation only — local simulation is pure CPU and runs to
// completion. A panic during computation is recovered into a
// *faults.PanicError and cached as the entry's error — without that,
// sync.Once would mark the entry done and serve a nil cell to every later
// requester.
func (cc *CellCache) cell(ctx context.Context, key string, cs CellSpec, env CellEnv) (*CellPayload, bool, error) {
	cc.mu.Lock()
	e, hit := cc.cells[key]
	if hit {
		cc.hits++
	} else {
		e = &cellEntry{}
		cc.cells[key] = e
	}
	cc.mu.Unlock()
	e.once.Do(func() {
		defer recoverInto(e)
		// Persistent store first: a warm record turns the cell into pure
		// I/O. Loading inside the single-flight section keeps cache-hit
		// accounting — and therefore exported manifests — identical
		// between a cold run and a warm-store rerun.
		if cc.backing != nil {
			if p, ok := cc.backing.Load(key); ok {
				e.p = &p
				cc.adopt(cs, e)
				return
			}
		}
		e.p, e.err = cc.simulate(ctx, key, cs, env)
		if e.err == nil && cc.backing != nil {
			cc.backing.Save(key, *e.p)
		}
	})
	if cc.evictable(e.err) {
		cc.mu.Lock()
		if cc.cells[key] == e {
			delete(cc.cells, key)
		}
		cc.mu.Unlock()
	}
	return e.p, hit, e.err
}

// simulate joins or starts the single flight of cs's effective key, which
// computes the cell remotely when a delegate is installed and locally
// otherwise. The named key and cs of the cell that starts a flight are what
// it ships; every cell that joins it shares the payload.
func (cc *CellCache) simulate(ctx context.Context, key string, cs CellSpec, env CellEnv) (*CellPayload, error) {
	plan, ek, err := effectiveKey(cs)
	if err != nil {
		return nil, err
	}
	f := cc.flight(ek, &cellEntry{})
	f.once.Do(func() {
		defer recoverInto(f)
		var p CellPayload
		if cc.remote != nil {
			p, f.err = cc.remote(ctx, key, cs, env)
		} else {
			p, f.err = cc.compute(cs, plan, env)
		}
		if f.err == nil {
			f.p = &p
		}
	})
	if cc.evictable(f.err) {
		cc.mu.Lock()
		for c := cc; c != nil; c = c.parent {
			if c.flights[ek] == f {
				delete(c.flights, ek)
			}
		}
		cc.mu.Unlock()
	}
	return f.p, f.err
}

// adopt makes e, a cell just loaded from the backing, the finished flight
// of cs's effective key unless this cache or an ancestor already holds a
// flight for that key, so a twin the backing lacks joins it instead of
// simulating again.
func (cc *CellCache) adopt(cs CellSpec, e *cellEntry) {
	if _, ek, err := effectiveKey(cs); err == nil {
		cc.flight(ek, e)
	}
}

// flight returns the flight of effective key ek: the entry of the nearest
// cache that holds one, this cache or an ancestor, or else f, which it
// adds to this cache's own flights.
func (cc *CellCache) flight(ek [sha256.Size]byte, f *cellEntry) *cellEntry {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for c := cc; c != nil; c = c.parent {
		if found, ok := c.flights[ek]; ok {
			return found
		}
	}
	cc.flights[ek] = f
	return f
}

// evictable reports whether err ends a remote attempt that must not be
// memoized: a transient failure (worker connection lost, fleet draining) or
// an attempt ended by its context. Evicting its entries gives the
// scheduler's retry — or the next run sharing this cache — a fresh attempt.
// Deterministic failures stay cached.
func (cc *CellCache) evictable(err error) bool {
	return err != nil && cc.remote != nil &&
		(faults.IsTransient(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// recoverInto turns a panic in e's computation into e's error.
func recoverInto(e *cellEntry) {
	if v := recover(); v != nil {
		e.p, e.err = nil, &faults.PanicError{Value: v, Stack: debug.Stack()}
	}
}

// trace returns the committed trace for (seed, budget) of pe's program,
// walking it at most once per key. Traces live as long as their program
// entry: a full-scale all-figures run holds roughly six per workload.
func (cc *CellCache) trace(pe *progEntry, seed, maxInstr uint64) ([]cfg.Step, cfg.WalkResult, error) {
	key := traceKey{seed, maxInstr}
	cc.mu.Lock()
	e, ok := pe.traces[key]
	if !ok {
		e = &traceEntry{}
		pe.traces[key] = e
	}
	cc.mu.Unlock()
	e.once.Do(func() {
		steps := make([]cfg.Step, 0, 4096)
		e.res, e.err = pe.prog.Walk(0, cfg.WalkOptions{Seed: seed, MaxInstr: maxInstr},
			func(s cfg.Step) bool { steps = append(steps, s); return true })
		e.steps = make([]cfg.Step, len(steps)) // held for the run: no append slack
		copy(e.steps, steps)
	})
	return e.steps, e.res, e.err
}

// compute simulates cs, whose configuration and tweaks resolve to plan.
func (cc *CellCache) compute(cs CellSpec, plan sim.Plan, env CellEnv) (CellPayload, error) {
	pe := cc.programEntry(cs.Workload)
	if pe.err != nil {
		return CellPayload{}, pe.err
	}
	opts := []sim.Option{sim.WithTracer(env.Tracer)}
	if env.Checks {
		opts = append(opts, sim.WithChecks())
	}
	if env.MaxCycles > 0 {
		opts = append(opts, sim.WithMaxCycles(env.MaxCycles))
	}
	setup := plan.Build(cs.Workload, pe.prog, opts...)
	setup.Kind = cs.Config // names the cell in a failed check's error
	setup.Eng.AttachScratch(scratchPool.Get().(*engine.Scratch))
	defer func() { scratchPool.Put(setup.Eng.DetachScratch()) }()
	setup.TraceProvider = func(seed, maxInstr uint64) ([]cfg.Step, cfg.WalkResult, error) {
		return cc.trace(pe, seed, maxInstr)
	}
	res, err := setup.Run(cs.Mode)
	if err != nil {
		return CellPayload{}, err
	}
	// Snapshot every engine/mechanism/result metric into plain values so
	// cached cells do not pin whole engines (caches, BTB, TAGE tables) in
	// memory for the lifetime of a cross-experiment cache.
	reg := obs.NewRegistry()
	setup.RegisterMetrics(reg)
	res.RegisterMetrics(reg, nil)
	return CellPayload{Res: res, Metrics: reg.Snapshot().Values()}, nil
}

// Stats reports the number of distinct cells simulated and how many cell
// requests were served from the cache.
func (cc *CellCache) Stats() (cells, hits int) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.cells), cc.hits
}
