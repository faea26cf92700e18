package cache

import "ignite/internal/stats"

// LineBytesConst is the line size used throughout the hierarchy.
const LineBytesConst = 64

// Level identifies a position in the hierarchy.
type Level uint8

const (
	LvlL1I Level = iota
	LvlL1D
	LvlL2
	LvlLLC
	LvlMem
)

func (l Level) String() string {
	switch l {
	case LvlL1I:
		return "L1I"
	case LvlL1D:
		return "L1D"
	case LvlL2:
		return "L2"
	case LvlLLC:
		return "LLC"
	case LvlMem:
		return "Mem"
	default:
		return "?"
	}
}

// Source identifies the agent that caused a fill, used for bandwidth and
// accuracy classification (Figures 9c and 10).
type Source uint8

const (
	SrcDemand Source = iota
	SrcWrongPath
	SrcNextLine
	SrcFDP
	SrcBoomerang
	SrcJukebox
	SrcConfluence
	SrcIgnite
	SrcData
	numSources
)

// NumSources is the number of distinct fill sources.
const NumSources = int(numSources)

func (s Source) String() string {
	switch s {
	case SrcDemand:
		return "demand"
	case SrcWrongPath:
		return "wrongpath"
	case SrcNextLine:
		return "nextline"
	case SrcFDP:
		return "fdp"
	case SrcBoomerang:
		return "boomerang"
	case SrcJukebox:
		return "jukebox"
	case SrcConfluence:
		return "confluence"
	case SrcIgnite:
		return "ignite"
	case SrcData:
		return "data"
	default:
		return "?"
	}
}

// provFor maps a fill source to line provenance.
func provFor(src Source) Provenance {
	switch src {
	case SrcDemand, SrcData:
		return ProvDemand
	case SrcWrongPath:
		return ProvWrongPath
	case SrcIgnite:
		return ProvRestored
	default:
		return ProvPrefetch
	}
}

// Tracker observes memory-bus fetches, prefetch inserts and demand touches;
// implemented by memsys.Traffic. A nil Tracker disables tracking.
type Tracker interface {
	// MemFetch reports that one line crossed the DRAM bus due to src.
	MemFetch(lineAddr uint64, src Source)
	// Inserted reports a prefetch-class insert at the given level.
	Inserted(lineAddr uint64, src Source, lvl Level)
	// DemandTouch reports the first correct-path demand use of a line.
	DemandTouch(lineAddr uint64)
}

// Latencies holds per-level access latencies in cycles (Table 2 of the
// paper; memory is LLC miss + DRAM).
type Latencies struct {
	L1I, L1D, L2, LLC, Mem int
}

// DefaultLatencies mirror the paper's Table 2 (DDR4-2400 timings folded
// into a flat DRAM latency).
func DefaultLatencies() Latencies {
	return Latencies{L1I: 1, L1D: 4, L2: 13, LLC: 50, Mem: 160}
}

// HierStats aggregates hierarchy-level events that no single cache sees.
type HierStats struct {
	InstrFetches    stats.Counter // demand instruction line fetches
	InstrL1Misses   stats.Counter
	InstrL2Misses   stats.Counter
	InstrLLCMisses  stats.Counter // off-chip instruction fetches
	DataAccesses    stats.Counter
	DataL1Misses    stats.Counter
	DataLLCMisses   stats.Counter
	PrefetchIssued  [NumSources]stats.Counter
	PrefetchFromMem [NumSources]stats.Counter
}

// Hierarchy wires the four caches together with a flat-latency DRAM behind
// them and routes fill/accuracy events to an optional Tracker.
type Hierarchy struct {
	L1I, L1D, L2, LLC *Cache
	Lat               Latencies
	tracker           Tracker
	stats             HierStats
}

// DefaultL2Bytes is the Table 2 L2 capacity.
const DefaultL2Bytes = 1280 << 10

// DefaultHierarchy builds the paper's Table 2 configuration: 32 KiB/8-way
// L1-I, 48 KiB/12-way L1-D, 1280 KiB/20-way private L2, 8 MiB/16-way LLC,
// 64 B lines.
func DefaultHierarchy(tracker Tracker) *Hierarchy {
	return &Hierarchy{
		L1I:     MustNew(Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 1}),
		L1D:     MustNew(Config{Name: "L1D", SizeBytes: 48 << 10, LineBytes: 64, Ways: 12, HitLatency: 4}),
		L2:      MustNew(Config{Name: "L2", SizeBytes: DefaultL2Bytes, LineBytes: 64, Ways: 20, HitLatency: 13}),
		LLC:     MustNew(Config{Name: "LLC", SizeBytes: 8 << 20, LineBytes: 64, Ways: 16, HitLatency: 50}),
		Lat:     DefaultLatencies(),
		tracker: tracker,
	}
}

// Stats returns the hierarchy-level statistics.
func (h *Hierarchy) Stats() *HierStats { return &h.stats }

// insertL2 fills the L2 and maintains inclusion: the L2 is inclusive of
// both L1s, so a line displaced from the L2 must be dropped from the L1s
// too (back-invalidation). Without this, a hot line resident in the L1-I —
// whose hits never refresh its L2 recency — could outlive its L2 copy,
// silently breaking the inclusion law the paper's hierarchy assumes.
func (h *Hierarchy) insertL2(la uint64, prov Provenance) {
	if ev, ok := h.L2.Insert(la, prov); ok {
		h.L1I.Invalidate(ev.LineAddr)
		h.L1D.Invalidate(ev.LineAddr)
	}
}

// insertL2Absent is insertL2 for a line just proven absent from the L2 (a
// missed L2 access or failed Contains with no intervening L2 insert).
func (h *Hierarchy) insertL2Absent(la uint64, prov Provenance) {
	if ev, ok := h.L2.InsertAbsent(la, prov); ok {
		h.L1I.Invalidate(ev.LineAddr)
		h.L1D.Invalidate(ev.LineAddr)
	}
}

// FetchInstr performs a demand instruction fetch of the line containing
// addr, filling missing levels on the way. wrongPath marks fetches issued
// beyond a front-end divergence. It returns the access latency, the level
// that supplied the line, and whether this was the first demand touch of a
// prefetched line (the next-line prefetcher's secondary trigger).
func (h *Hierarchy) FetchInstr(addr uint64, wrongPath bool) (lat int, lvl Level, firstTouch bool) {
	la := h.L1I.LineAddr(addr)
	src := SrcDemand
	if wrongPath {
		src = SrcWrongPath
	}
	h.stats.InstrFetches.Inc()

	if res := h.L1I.Access(la, true); res.Hit {
		// Only a first touch can change tracker state on a hit: a line
		// that is already demand-filled or touched has had its
		// DemandTouch delivered (wrong-path fetches never hit — the
		// engine checks residency before issuing them), so the hottest
		// path in the simulator skips the tracker's map lookup.
		if res.FirstTouch && !wrongPath && h.tracker != nil {
			h.tracker.DemandTouch(la)
		}
		return h.Lat.L1I, LvlL1I, res.FirstTouch
	}
	h.stats.InstrL1Misses.Inc()
	prov := provFor(src)

	if res := h.L2.Access(la, true); res.Hit {
		h.L1I.InsertAbsent(la, prov)
		if !wrongPath && h.tracker != nil {
			h.tracker.DemandTouch(la)
		}
		return h.Lat.L2, LvlL2, false
	}
	h.stats.InstrL2Misses.Inc()

	if res := h.LLC.Access(la, true); res.Hit {
		h.insertL2Absent(la, prov)
		h.L1I.InsertAbsent(la, prov)
		if !wrongPath && h.tracker != nil {
			h.tracker.DemandTouch(la)
		}
		return h.Lat.LLC, LvlLLC, false
	}
	h.stats.InstrLLCMisses.Inc()

	// DRAM.
	if h.tracker != nil {
		h.tracker.MemFetch(la, src)
		if !wrongPath {
			h.tracker.DemandTouch(la)
		}
	}
	h.LLC.InsertAbsent(la, prov)
	h.insertL2Absent(la, prov)
	h.L1I.InsertAbsent(la, prov)
	return h.Lat.Mem, LvlMem, false
}

// PrefetchInstr brings the line containing addr into level `into` (and the
// levels below it on the fill path) on behalf of src. It returns the level
// the line was found at (LvlMem if it came from DRAM) and false when the
// line was already present at or above the target level.
func (h *Hierarchy) PrefetchInstr(addr uint64, src Source, into Level) (from Level, issued bool) {
	la := h.L1I.LineAddr(addr)
	// Already close enough to the core?
	switch into {
	case LvlL1I:
		if h.L1I.Contains(la) {
			return LvlL1I, false
		}
	case LvlL2:
		if h.L2.Contains(la) || h.L1I.Contains(la) {
			return LvlL2, false
		}
	default:
		if h.LLC.Contains(la) {
			return LvlLLC, false
		}
	}
	h.stats.PrefetchIssued[src].Inc()
	prov := provFor(src)

	from = LvlMem
	switch {
	case into == LvlL1I && h.L2.Contains(la):
		from = LvlL2
	case h.LLC.Contains(la):
		from = LvlLLC
	}
	if from == LvlMem {
		if h.tracker != nil {
			h.tracker.MemFetch(la, src)
		}
		h.stats.PrefetchFromMem[src].Inc()
		h.LLC.InsertAbsent(la, prov)
	}
	if into == LvlL1I {
		if from == LvlMem || from == LvlLLC {
			// from != LvlL2 means the L2 probe above came up empty.
			h.insertL2Absent(la, prov)
		}
		h.L1I.InsertAbsent(la, prov)
	} else if into == LvlL2 {
		h.insertL2Absent(la, prov)
	}
	if h.tracker != nil {
		h.tracker.Inserted(la, src, into)
	}
	return from, true
}

// AccessData performs a demand data access (load or store; we model both
// identically as fills).
func (h *Hierarchy) AccessData(addr uint64) (lat int, lvl Level) {
	la := h.L1D.LineAddr(addr)
	h.stats.DataAccesses.Inc()
	if res := h.L1D.Access(la, true); res.Hit {
		return h.Lat.L1D, LvlL1D
	}
	h.stats.DataL1Misses.Inc()
	if res := h.L2.Access(la, true); res.Hit {
		h.L1D.InsertAbsent(la, ProvDemand)
		return h.Lat.L2, LvlL2
	}
	if res := h.LLC.Access(la, true); res.Hit {
		h.insertL2Absent(la, ProvDemand)
		h.L1D.InsertAbsent(la, ProvDemand)
		return h.Lat.LLC, LvlLLC
	}
	h.stats.DataLLCMisses.Inc()
	if h.tracker != nil {
		h.tracker.MemFetch(la, SrcData)
	}
	h.LLC.InsertAbsent(la, ProvDemand)
	h.insertL2Absent(la, ProvDemand)
	h.L1D.InsertAbsent(la, ProvDemand)
	return h.Lat.Mem, LvlMem
}

// PrefetchData brings a data line into L1D/L2 on behalf of the baseline
// stride prefetcher.
func (h *Hierarchy) PrefetchData(addr uint64) {
	la := h.L1D.LineAddr(addr)
	if h.L1D.Contains(la) {
		return
	}
	if h.L2.Contains(la) {
		h.insertL2(la, ProvPrefetch) // recency refresh of the resident copy
	} else {
		if !h.LLC.Contains(la) {
			if h.tracker != nil {
				h.tracker.MemFetch(la, SrcData)
			}
			h.LLC.InsertAbsent(la, ProvPrefetch)
		}
		h.insertL2Absent(la, ProvPrefetch)
	}
	h.L1D.InsertAbsent(la, ProvPrefetch)
}

// FlushAll empties every cache (the lukewarm thrash).
func (h *Hierarchy) FlushAll() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
	h.LLC.Flush()
}

// ResetStats clears all hierarchy and per-cache counters.
func (h *Hierarchy) ResetStats() {
	h.stats = HierStats{}
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.LLC.ResetStats()
}
