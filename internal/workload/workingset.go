package workload

import (
	"ignite/internal/cfg"
)

// WorkingSet is the per-invocation front-end working set of a function —
// the quantities the paper's Figure 2 characterizes.
type WorkingSet struct {
	// InstrBytes is the unique instruction-cache footprint touched by
	// one invocation (unique 64 B lines x 64).
	InstrBytes uint64
	// InstrLines is the number of unique cache lines.
	InstrLines int
	// BTBEntries is the branch working set: unique branch PCs taken at
	// least once during the invocation (never-taken branches consume no
	// BTB capacity).
	BTBEntries int
	// StaticBranchSites is the count of distinct branch PCs executed,
	// taken or not.
	StaticBranchSites int
	// DynInstr is the invocation's dynamic instruction count.
	DynInstr uint64
	// DynBranches is the number of dynamic branch executions.
	DynBranches uint64
}

// MeasureWorkingSet traces one invocation (no timing) and accumulates its
// front-end working set.
func MeasureWorkingSet(p *cfg.Program, seed, maxInstr uint64) (WorkingSet, error) {
	lines := make(map[uint64]struct{}, 1<<13)
	takenPCs := make(map[uint64]struct{}, 1<<13)
	branchPCs := make(map[uint64]struct{}, 1<<13)
	var ws WorkingSet

	res, err := p.Walk(0, cfg.WalkOptions{Seed: seed, MaxInstr: maxInstr}, func(s cfg.Step) bool {
		b := p.Block(s.Block())
		start := b.Addr &^ (cfg.CacheLineBytes - 1)
		end := b.BranchPC() &^ (cfg.CacheLineBytes - 1)
		for la := start; la <= end; la += cfg.CacheLineBytes {
			lines[la] = struct{}{}
		}
		if b.Kind.IsBranch() {
			ws.DynBranches++
			branchPCs[b.BranchPC()] = struct{}{}
			if s.Taken() {
				takenPCs[b.BranchPC()] = struct{}{}
			}
		}
		return true
	})
	if err != nil {
		return WorkingSet{}, err
	}
	ws.InstrLines = len(lines)
	ws.InstrBytes = uint64(len(lines)) * cfg.CacheLineBytes
	ws.BTBEntries = len(takenPCs)
	ws.StaticBranchSites = len(branchPCs)
	ws.DynInstr = res.Instrs
	return ws, nil
}
