// Package cache models the on-chip cache hierarchy of the simulated core:
// set-associative L1-I, L1-D, private L2 and shared LLC with LRU
// replacement, line provenance tracking (demand / prefetcher / Ignite
// restore), and the statistics needed by the paper's coverage, accuracy and
// bandwidth studies.
package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"ignite/internal/stats"
)

// Provenance records how a line entered a cache, enabling the prefetch
// accuracy accounting of the paper's Figure 9c and the useful/useless
// traffic split of Figure 10.
type Provenance uint8

const (
	// ProvDemand: filled by a correct-path demand access.
	ProvDemand Provenance = iota
	// ProvWrongPath: filled by a wrong-path demand fetch.
	ProvWrongPath
	// ProvPrefetch: filled by a conventional prefetcher (NL, FDP,
	// Boomerang, Jukebox, Confluence).
	ProvPrefetch
	// ProvRestored: filled by Ignite's bulk restore.
	ProvRestored
)

func (p Provenance) String() string {
	switch p {
	case ProvDemand:
		return "demand"
	case ProvWrongPath:
		return "wrongpath"
	case ProvPrefetch:
		return "prefetch"
	case ProvRestored:
		return "restored"
	default:
		return fmt.Sprintf("Provenance(%d)", uint8(p))
	}
}

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency int // cycles
}

// Stats collects per-cache event counts.
type Stats struct {
	Accesses       stats.Counter
	Hits           stats.Counter
	Misses         stats.Counter
	Inserts        stats.Counter
	Evictions      stats.Counter
	PrefetchUseful stats.Counter // first demand touch of a prefetched/restored line
	PrefetchUnused stats.Counter // prefetched/restored lines evicted or swept untouched
}

// Each way is one packed word: the line tag in the high 32 bits, the LRU
// timestamp in the low 32. The set scan (tag match) and the victim scan
// (min timestamp) therefore read the same dense row of words — for an 8-way
// set that is a single host cache line instead of three. tagEmpty32 marks an
// invalid way; locate rejects addresses whose tag would reach the sentinel.
const (
	tagEmpty32 = ^uint32(0)
	emptyWord  = uint64(tagEmpty32) << 32
	maxTick    = ^uint32(0) - 1 // renormalize before the timestamp can wrap
)

// Line metadata is packed into one byte per way: the low two bits hold the
// Provenance, bit 2 the demand-touched flag.
const (
	metaProvMask = 0b011
	metaTouched  = 0b100
)

// Cache is a single set-associative, LRU, write-allocate cache level. The
// zero value is not usable; construct with New.
type Cache struct {
	cfg      Config
	sets     int
	ways     int // == cfg.Ways, hoisted for the per-access set math
	lineBits uint
	setBits  uint // log2(sets), hoisted out of the per-access tag math
	setMask  uint64
	pk       []uint64 // sets*ways, set-major: tag<<32 | lastUse
	meta     []uint8  // provenance + touched bits, parallel to pk
	tick     uint32
	stats    Stats
}

// Validate reports whether New can build cfg: a coherent geometry with a
// power-of-two line size and set count.
func (cfg Config) Validate() error {
	if cfg.LineBytes <= 0 || bits.OnesCount(uint(cfg.LineBytes)) != 1 {
		return fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return fmt.Errorf("cache %s: invalid geometry", cfg.Name)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines%cfg.Ways != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways)
	}
	if sets := lines / cfg.Ways; bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache %s: %d sets not a power of two", cfg.Name, sets)
	}
	return nil
}

// New builds a cache from cfg, which must pass Validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     cfg.Ways,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
		pk:       make([]uint64, lines),
		meta:     make([]uint8, lines),
	}
	for i := range c.pk {
		c.pk[i] = emptyWord
	}
	return c, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the cache's statistics collector.
func (c *Cache) Stats() *Stats { return &c.stats }

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr >> c.lineBits << c.lineBits
}

// locate splits addr into its set's base index and tag with one shift of the
// line index — the hottest few instructions in the whole simulator. The tag
// is returned as uint64 so a probe whose tag exceeds 32 bits compares not-
// equal against every stored (32-bit) tag instead of aliasing by truncation;
// fill rejects such addresses outright, so they can never become resident.
func (c *Cache) locate(addr uint64) (base int, tag uint64) {
	lineIdx := addr >> c.lineBits
	return int(lineIdx&c.setMask) * c.ways, lineIdx >> c.setBits
}

// nextTick advances the LRU clock. When the 32-bit timestamp space is about
// to wrap, every set's timestamps are renormalized to their rank order —
// relative recency (the only thing LRU replacement reads) is preserved
// exactly, so replacement behaviour is unchanged across a renormalization.
func (c *Cache) nextTick() uint32 {
	if c.tick >= maxTick {
		c.renormalizeTicks()
	}
	c.tick++
	return c.tick
}

func (c *Cache) renormalizeTicks() {
	order := make([]int, 0, c.ways)
	for base := 0; base < len(c.pk); base += c.ways {
		order = order[:0]
		for i := 0; i < c.ways; i++ {
			if c.pk[base+i] != emptyWord {
				order = append(order, i)
			}
		}
		row := c.pk[base : base+c.ways]
		sort.Slice(order, func(a, b int) bool {
			return uint32(row[order[a]]) < uint32(row[order[b]])
		})
		for rank, i := range order {
			row[i] = row[i]&^uint64(^uint32(0)) | uint64(rank+1)
		}
	}
	c.tick = uint32(c.ways)
}

// AccessResult describes a cache lookup.
type AccessResult struct {
	Hit bool
	// FirstTouch is set when a demand access hits a prefetched or
	// restored line for the first time — the signal used both by the
	// next-line prefetcher (prefetch-hit trigger) and by accuracy
	// accounting.
	FirstTouch bool
	// Prov is the provenance of the line that was hit.
	Prov Provenance
}

// Access looks up addr. A demand access updates recency and the touched
// bit; a non-demand access (prefetcher probe) updates neither.
func (c *Cache) Access(addr uint64, demand bool) AccessResult {
	base, tag := c.locate(addr)
	ps := c.pk[base : base+c.ways]
	if demand {
		c.stats.Accesses.Inc()
	}
	for i := range ps {
		if ps[i]>>32 == tag {
			m := c.meta[base+i]
			prov := Provenance(m & metaProvMask)
			if !demand {
				return AccessResult{Hit: true, Prov: prov}
			}
			c.stats.Hits.Inc()
			ps[i] = tag<<32 | uint64(c.nextTick())
			first := m&metaTouched == 0 && prov != ProvDemand
			if first {
				c.stats.PrefetchUseful.Inc()
			}
			c.meta[base+i] = m | metaTouched
			return AccessResult{Hit: true, FirstTouch: first, Prov: prov}
		}
	}
	if demand {
		c.stats.Misses.Inc()
	}
	return AccessResult{}
}

// Contains reports whether addr is resident without disturbing any state.
func (c *Cache) Contains(addr uint64) bool {
	base, tag := c.locate(addr)
	ps := c.pk[base : base+c.ways]
	for i := range ps {
		if ps[i]>>32 == tag {
			return true
		}
	}
	return false
}

// Eviction describes a line displaced by an insert.
type Eviction struct {
	LineAddr uint64
	Prov     Provenance
	Touched  bool
}

// Insert fills addr with the given provenance, returning the eviction (if
// any). Inserting a line that is already resident refreshes recency and
// upgrades wrong-path/prefetch provenance to demand when prov is demand.
func (c *Cache) Insert(addr uint64, prov Provenance) (Eviction, bool) {
	base, tag := c.locate(addr)
	ps := c.pk[base : base+c.ways]
	tick := c.nextTick()
	for i := range ps {
		if ps[i]>>32 == tag {
			ps[i] = tag<<32 | uint64(tick)
			if prov == ProvDemand {
				c.meta[base+i] = uint8(ProvDemand) | metaTouched
			}
			return Eviction{}, false
		}
	}
	return c.fill(addr, base, tag, tick, prov)
}

// InsertAbsent is Insert for a line the caller has just proven absent (a
// missed Access or failed Contains on this cache with no intervening insert):
// it skips the existing-copy scan and goes straight to victim selection.
func (c *Cache) InsertAbsent(addr uint64, prov Provenance) (Eviction, bool) {
	base, tag := c.locate(addr)
	return c.fill(addr, base, tag, c.nextTick(), prov)
}

// fill places addr into an invalid way, or the LRU victim when the set is
// full (first invalid way wins, then strictly-oldest timestamp — the same
// selection order as the original two-pass scan).
func (c *Cache) fill(addr uint64, base int, tag uint64, tick uint32, prov Provenance) (Eviction, bool) {
	if tag >= uint64(tagEmpty32) {
		panic(fmt.Sprintf("cache %s: address %#x out of the 32-bit tag range", c.cfg.Name, addr))
	}
	ps := c.pk[base : base+c.ways]
	victim := 0
	var oldest uint32 = ^uint32(0)
	for i := range ps {
		w := ps[i]
		if w == emptyWord {
			victim = i
			oldest = 0
			break
		}
		if uint32(w) < oldest {
			oldest = uint32(w)
			victim = i
		}
	}
	ev := Eviction{}
	hadEv := false
	if w := ps[victim]; w != emptyWord {
		hadEv = true
		m := c.meta[base+victim]
		setIdx := (addr >> c.lineBits) & c.setMask
		evLineIdx := (w>>32)<<c.setBits | setIdx
		ev = Eviction{
			LineAddr: evLineIdx << c.lineBits,
			Prov:     Provenance(m & metaProvMask),
			Touched:  m&metaTouched != 0,
		}
		c.stats.Evictions.Inc()
		if m&metaTouched == 0 && Provenance(m&metaProvMask) != ProvDemand {
			c.stats.PrefetchUnused.Inc()
		}
	}
	ps[victim] = tag<<32 | uint64(tick)
	m := uint8(prov)
	if prov == ProvDemand {
		m |= metaTouched
	}
	c.meta[base+victim] = m
	c.stats.Inserts.Inc()
	return ev, hadEv
}

// Flush invalidates every line, modeling thrashing by interleaved
// executions. Untouched prefetched lines are counted as unused.
func (c *Cache) Flush() {
	for i := range c.pk {
		if c.pk[i] != emptyWord {
			m := c.meta[i]
			if m&metaTouched == 0 && Provenance(m&metaProvMask) != ProvDemand {
				c.stats.PrefetchUnused.Inc()
			}
		}
		c.pk[i] = emptyWord
		c.meta[i] = 0
	}
	c.tick = 0
}

// SweepUnused finalizes accuracy statistics at the end of a measurement
// window: resident prefetched/restored lines that were never demand-touched
// are counted as unused without invalidating them.
func (c *Cache) SweepUnused() int {
	n := 0
	for i := range c.pk {
		if c.pk[i] == emptyWord {
			continue
		}
		m := c.meta[i]
		if m&metaTouched == 0 && Provenance(m&metaProvMask) != ProvDemand {
			c.stats.PrefetchUnused.Inc()
			n++
		}
	}
	return n
}

// Invalidate removes addr's line if resident, returning whether a line was
// dropped. Used for inclusion-maintaining back-invalidation: when an outer
// level evicts a line, inner copies must go too. An untouched
// prefetched/restored line counts as unused, exactly as in an eviction.
func (c *Cache) Invalidate(addr uint64) bool {
	base, tag := c.locate(addr)
	ps := c.pk[base : base+c.ways]
	for i := range ps {
		if ps[i]>>32 == tag {
			m := c.meta[base+i]
			if m&metaTouched == 0 && Provenance(m&metaProvMask) != ProvDemand {
				c.stats.PrefetchUnused.Inc()
			}
			ps[i] = emptyWord
			c.meta[base+i] = 0
			return true
		}
	}
	return false
}

// Lines returns the line addresses of every valid line, in set order — the
// iteration surface the inclusion invariant (internal/check) audits.
func (c *Cache) Lines() []uint64 {
	out := make([]uint64, 0, 64)
	for i := range c.pk {
		if c.pk[i] == emptyWord {
			continue
		}
		setIdx := uint64(i/c.ways) & c.setMask
		out = append(out, ((c.pk[i]>>32)<<c.setBits|setIdx)<<c.lineBits)
	}
	return out
}

// ResetStats clears counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.pk {
		if c.pk[i] != emptyWord {
			n++
		}
	}
	return n
}
