// Package btb implements the Branch Target Buffer of the simulated core:
// set-associative with partial tags, allocated only for taken branches at
// commit (the property Ignite's record mechanism relies on), with insertion
// hooks for Ignite's recorder and restored-entry tracking for replay
// throttling.
package btb

import (
	"fmt"
	"math/bits"

	"ignite/internal/cfg"
	"ignite/internal/stats"
)

// Entry is one BTB entry: the branch's PC, its (last) target, and the
// branch type. Matching the paper's Table 2, tags are partial (12 bits by
// default), so rare aliasing is possible and intentional.
type Entry struct {
	PC     uint64
	Target uint64
	Kind   cfg.BranchKind
}

// Config describes BTB geometry. The paper models 12K entries, 6-way,
// 12-bit tags (Sapphire-Rapids-like).
type Config struct {
	Entries int
	Ways    int
	TagBits int
}

// DefaultConfig returns the paper's Table 2 BTB.
func DefaultConfig() Config { return Config{Entries: 12 * 1024, Ways: 6, TagBits: 12} }

// Stats counts BTB events. Misses are counted by the front end (a miss is
// only architecturally meaningful for a taken branch); the BTB itself
// counts structural events.
type Stats struct {
	Lookups           stats.Counter
	Hits              stats.Counter
	Inserts           stats.Counter
	Evictions         stats.Counter
	RestoredInserts   stats.Counter
	RestoredUsed      stats.Counter // restored entries that served a lookup
	RestoredEvictedUU stats.Counter // restored entries evicted untouched
}

// Storage is struct-of-arrays: one packed key word per way carries
// everything a match scan reads (valid bit, partial tag, VM ID), so a 6-way
// probe touches 48 contiguous bytes instead of six 40-byte structs. Payload
// (target, kind), recency and the restored mark live in parallel arrays read
// only on a hit or during victim selection.
// The VM ID tags the entry with the virtual machine that created it (Arm
// FEAT_CSV2-style BTB tagging, Section 4.4 of the paper): when tagging is
// enabled, entries are only usable by the VM that owns them, so replayed
// entries from a malicious VM cannot steer another VM's speculation.
const (
	keyValid   = uint64(1) << 63 // set ⇒ way holds an entry
	keyVMShift = 44              // vmID occupies bits 44..59; tag ≤ 40 bits
	keyVMMask  = uint64(0xffff) << keyVMShift
)

const metaRestored = uint8(1) // inserted by Ignite replay and not yet accessed

// BTB is a set-associative branch target buffer. Construct with New.
type BTB struct {
	cfg     Config
	sets    int
	setMask uint64
	tagMask uint64
	keys    []uint64 // keyValid | vmID<<keyVMShift | tag, set-major
	targets []uint64
	kinds   []cfg.BranchKind
	meta    []uint8 // metaRestored
	lastUse []uint64
	tick    uint64
	stats   Stats

	// onInsert fires for demand (commit-time) insertions only — the tap
	// Ignite's recorder attaches to (Section 4.1).
	onInsert func(Entry)
	// restoredUntouched counts replay-inserted entries that the front
	// end has not yet used, driving replay throttling (Section 4.2).
	restoredUntouched int

	// tagging enables VM-ID tagging; currentVM is the executing VM.
	tagging   bool
	currentVM uint16
}

// Validate reports whether New can build c: entries that divide into a
// power-of-two number of sets, and 1 to 40 tag bits.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("btb: bad geometry %+v", c)
	}
	if sets := c.Entries / c.Ways; bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("btb: %d sets not a power of two", sets)
	}
	if c.TagBits <= 0 || c.TagBits > 40 {
		return fmt.Errorf("btb: bad tag bits %d", c.TagBits)
	}
	return nil
}

// New builds a BTB; c must pass Validate.
func New(c Config) (*BTB, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sets := c.Entries / c.Ways
	return &BTB{
		cfg:     c,
		sets:    sets,
		setMask: uint64(sets - 1),
		tagMask: (1 << uint(c.TagBits)) - 1,
		keys:    make([]uint64, c.Entries),
		targets: make([]uint64, c.Entries),
		kinds:   make([]cfg.BranchKind, c.Entries),
		meta:    make([]uint8, c.Entries),
		lastUse: make([]uint64, c.Entries),
	}, nil
}

// MustNew is New for known-valid configurations.
func MustNew(c Config) *BTB {
	b, err := New(c)
	if err != nil {
		panic(err)
	}
	return b
}

// Config returns the BTB's configuration.
func (b *BTB) Config() Config { return b.cfg }

// Stats returns the BTB statistics collector.
func (b *BTB) Stats() *Stats { return &b.stats }

// OnInsert registers the commit-time insertion hook (at most one).
func (b *BTB) OnInsert(fn func(Entry)) { b.onInsert = fn }

// EnableTagging turns on VM-ID tagging (FEAT_CSV2-style). Entries created
// from now on are tagged with the current VM and are invisible to lookups
// from other VMs.
func (b *BTB) EnableTagging() { b.tagging = true }

// SetVM switches the currently executing VM context.
func (b *BTB) SetVM(id uint16) { b.currentVM = id }

func (b *BTB) index(pc uint64) (set uint64, tag uint64) {
	w := pc >> 2 // instruction-aligned
	set = w & b.setMask
	tag = (w >> uint(bits.TrailingZeros(uint(b.sets)))) & b.tagMask
	return
}

// matchSpec builds the equality scan for the current VM context: without
// tagging the VM field is masked out (entries match regardless of owner,
// exactly as before the SoA layout); with tagging it participates in the
// comparison, so a tag match owned by another VM simply fails equality and
// the scan continues — the original "unusable across VM boundaries" rule.
func (b *BTB) matchSpec(tag uint64) (want, mask uint64) {
	want = keyValid | tag
	mask = keyValid | b.tagMask
	if b.tagging {
		want |= uint64(b.currentVM) << keyVMShift
		mask |= keyVMMask
	}
	return want, mask
}

// Lookup queries the BTB for a branch at pc. A hit updates recency and
// clears the restored-untouched mark.
func (b *BTB) Lookup(pc uint64) (Entry, bool) {
	set, tag := b.index(pc)
	base := int(set) * b.cfg.Ways
	ks := b.keys[base : base+b.cfg.Ways]
	want, mask := b.matchSpec(tag)
	b.stats.Lookups.Inc()
	for i := range ks {
		if ks[i]&mask == want {
			j := base + i
			b.stats.Hits.Inc()
			b.tick++
			b.lastUse[j] = b.tick
			if b.meta[j]&metaRestored != 0 {
				b.meta[j] &^= metaRestored
				b.restoredUntouched--
				b.stats.RestoredUsed.Inc()
			}
			return Entry{PC: pc, Target: b.targets[j], Kind: b.kinds[j]}, true
		}
	}
	return Entry{}, false
}

// Contains probes without updating recency or restored tracking.
func (b *BTB) Contains(pc uint64) bool {
	set, tag := b.index(pc)
	base := int(set) * b.cfg.Ways
	ks := b.keys[base : base+b.cfg.Ways]
	want, mask := b.matchSpec(tag)
	for i := range ks {
		if ks[i]&mask == want {
			return true
		}
	}
	return false
}

// Insert allocates (or updates) the entry for e.PC. restored marks replay
// insertions, which are tracked for throttling and accuracy and do NOT fire
// the recorder hook; commit-time insertions do.
func (b *BTB) Insert(e Entry, restored bool) {
	set, tag := b.index(e.PC)
	base := int(set) * b.cfg.Ways
	ks := b.keys[base : base+b.cfg.Ways]
	want, mask := b.matchSpec(tag)
	b.tick++
	for i := range ks {
		if ks[i]&mask == want {
			// Target update (e.g. indirect branch retarget) — not a
			// new allocation; no recording.
			j := base + i
			b.targets[j] = e.Target
			b.kinds[j] = e.Kind
			b.lastUse[j] = b.tick
			return
		}
	}
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range ks {
		if ks[i]&keyValid == 0 {
			victim = i
			oldest = 0
			break
		}
		if lu := b.lastUse[base+i]; lu < oldest {
			oldest = lu
			victim = i
		}
	}
	j := base + victim
	if b.keys[j]&keyValid != 0 {
		b.stats.Evictions.Inc()
		if b.meta[j]&metaRestored != 0 {
			b.restoredUntouched--
			b.stats.RestoredEvictedUU.Inc()
		}
	}
	b.keys[j] = keyValid | uint64(b.currentVM)<<keyVMShift | tag
	b.targets[j] = e.Target
	b.kinds[j] = e.Kind
	b.lastUse[j] = b.tick
	b.meta[j] = 0
	if restored {
		b.meta[j] = metaRestored
	}
	b.stats.Inserts.Inc()
	if restored {
		b.stats.RestoredInserts.Inc()
		b.restoredUntouched++
	} else if b.onInsert != nil {
		b.onInsert(e)
	}
}

// RestoredUntouched returns the number of replay-inserted entries the front
// end has not yet used — Ignite's throttle input.
func (b *BTB) RestoredUntouched() int { return b.restoredUntouched }

// Flush invalidates all entries (interleaving thrash). Restored entries
// still resident count as evicted-untouched.
func (b *BTB) Flush() {
	for i := range b.keys {
		if b.keys[i]&keyValid != 0 && b.meta[i]&metaRestored != 0 {
			b.stats.RestoredEvictedUU.Inc()
		}
		b.keys[i] = 0
		b.targets[i] = 0
		b.kinds[i] = 0
		b.meta[i] = 0
		b.lastUse[i] = 0
	}
	b.restoredUntouched = 0
	b.tick = 0
}

// SweepRestoredUnused finalizes restore-accuracy stats at the end of a
// measurement window: resident restored-but-unused entries count as unused.
func (b *BTB) SweepRestoredUnused() int {
	n := 0
	for i := range b.keys {
		if b.keys[i]&keyValid != 0 && b.meta[i]&metaRestored != 0 {
			n++
			b.stats.RestoredEvictedUU.Inc()
			b.meta[i] &^= metaRestored
		}
	}
	b.restoredUntouched = 0
	return n
}

// Occupancy returns the number of valid entries.
func (b *BTB) Occupancy() int {
	n := 0
	for i := range b.keys {
		if b.keys[i]&keyValid != 0 {
			n++
		}
	}
	return n
}

// ResetStats clears counters without touching contents.
func (b *BTB) ResetStats() { b.stats = Stats{} }

// Snapshot is an opaque deep copy of BTB contents.
type Snapshot struct {
	keys    []uint64
	targets []uint64
	kinds   []cfg.BranchKind
	meta    []uint8
	lastUse []uint64
}

// Snapshot returns a deep copy of the BTB contents (used by the warm-BTB
// preservation studies of Figures 4 and 5).
func (b *BTB) Snapshot() *Snapshot {
	return &Snapshot{
		keys:    append([]uint64(nil), b.keys...),
		targets: append([]uint64(nil), b.targets...),
		kinds:   append([]cfg.BranchKind(nil), b.kinds...),
		meta:    append([]uint8(nil), b.meta...),
		lastUse: append([]uint64(nil), b.lastUse...),
	}
}

// ContentEqual reports whether two snapshots hold the same architectural
// contents: identical (valid, tag, target, kind, restored, vmID) per way.
// Recency (lastUse) is ignored — it is replacement heuristic state, not
// content, and legitimately differs between two replays of the same stream.
func (s *Snapshot) ContentEqual(o *Snapshot) bool {
	if len(s.keys) != len(o.keys) {
		return false
	}
	for i := range s.keys {
		// The key word packs valid, tag and vmID, so one compare covers
		// all three.
		if s.keys[i] != o.keys[i] {
			return false
		}
		if s.keys[i]&keyValid == 0 {
			continue
		}
		if s.targets[i] != o.targets[i] || s.kinds[i] != o.kinds[i] ||
			s.meta[i]&metaRestored != o.meta[i]&metaRestored {
			return false
		}
	}
	return true
}

// Restore reinstates a snapshot taken from an identically configured BTB.
func (b *BTB) Restore(snap *Snapshot) {
	if len(snap.keys) != len(b.keys) {
		panic("btb: snapshot geometry mismatch")
	}
	copy(b.keys, snap.keys)
	copy(b.targets, snap.targets)
	copy(b.kinds, snap.kinds)
	copy(b.meta, snap.meta)
	copy(b.lastUse, snap.lastUse)
	b.restoredUntouched = 0
	for i := range b.keys {
		if b.meta[i]&metaRestored != 0 {
			b.restoredUntouched++
		}
	}
}
