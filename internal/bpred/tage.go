package bpred

import "math/rand/v2"

// The Table-2 geometry approximates the paper's 64 KiB L-TAGE budget: six
// 4K-entry tables with 11-bit tags (~48 KiB of tagged state) over
// geometric history lengths of 4 to 160 branches.
const (
	tageTables  = 6
	tageIdxBits = 12
	tageEntries = 1 << tageIdxBits
	tageTagBits = 11
	tageMaxHist = 160
)

// tageHistLens are the tables' history lengths, shortest first.
var tageHistLens = [tageTables]uint{4, 9, 19, 40, 84, tageMaxHist}

// tageOutShift is, per table, where the bit leaving the table's history
// window re-enters each of its three folds (histLen mod the fold's width).
var tageOutShift = func() (out [tageTables]foldShifts) {
	for i, hl := range tageHistLens {
		out[i] = foldShifts{hl % tageIdxBits, hl % tageTagBits, hl % (tageTagBits - 1)}
	}
	return out
}()

type foldShifts struct{ idx, tag, tag2 uint }

// TAGE is a tagged-geometric-history-length predictor (Seznec) layered over
// a bimodal base. Six tagged tables with geometrically increasing history
// lengths; standard provider/alternate selection, usefulness counters, and
// allocation-on-mispredict with periodic usefulness aging.
type TAGE struct {
	base *Bimodal
	st   tageState

	allocRNG rand.Rand
	tick     int // usefulness aging clock

	// memo caches the most recent lookup so the Predict→Update pair a branch
	// commit performs costs one table scan instead of two. A cached result is
	// valid only while none of the state it read has changed: Update, Flush
	// and Restore discard it, and mutations of the bimodal base (which lookup
	// consults for the alternate prediction) are caught by comparing the
	// base's version counter.
	memo     tageLookup
	memoPC   uint64
	memoBimV uint64
	memoOK   bool
}

// tageState is everything a snapshot keeps: the tables, the global history
// and its folds, and the alternate-selection counter.
type tageState struct {
	tables [tageTables][tageEntries]tageEntry
	// hist is the global history as a 160-bit shift register: bit b is the
	// outcome b branches back (0 = most recent).
	hist  [3]uint64
	folds [tageTables]tageFolds

	useAltOnNA int8 // 4-bit counter choosing alt over weak newly-allocated providers
}

type tageEntry struct {
	tag uint16
	ctr int8  // 3-bit signed [-4,3]; >=0 predicts taken
	u   uint8 // 2-bit usefulness
}

// tageFolds are one table's cyclic-shift-register folds of its most recent
// histLen history bits: idx down to tageIdxBits bits, tag down to
// tageTagBits and tag2 (a second tag fold, for decorrelation) down to
// tageTagBits-1.
type tageFolds struct{ idx, tag, tag2 uint32 }

// fold shifts newBit into a width-bit fold and removes oldBit, the bit
// leaving the history window, which re-enters at outShift.
func fold(val, newBit, oldBit uint32, width, outShift uint) uint32 {
	val = val<<1 | newBit
	val ^= oldBit << outShift
	val ^= val >> width
	return val & (1<<width - 1)
}

// NewTAGE builds a TAGE predictor over the given bimodal base.
func NewTAGE(base *Bimodal) *TAGE {
	return &TAGE{
		base:     base,
		allocRNG: *rand.New(rand.NewPCG(0x1905, 0x7a6e5d4c3b2a1908)),
	}
}

// tageLookup is one lookup: every table's index and tag for the branch,
// and the provider and alternate predictions they find.
type tageLookup struct {
	idx      [tageTables]uint32
	tag      [tageTables]uint16
	provider int // table index, -1 = base
	altpred  bool
	provPred bool
	weakNew  bool
}

func (t *TAGE) lookup(pc uint64) tageLookup {
	res := tageLookup{provider: -1}
	w := uint32(pc >> 2)
	for i := range res.idx {
		f := &t.st.folds[i]
		res.idx[i] = (w ^ w>>tageIdxBits ^ f.idx ^ uint32(i)*0x9e37) & (tageEntries - 1)
		res.tag[i] = uint16((w ^ f.tag ^ f.tag2<<1) & (1<<tageTagBits - 1))
	}
	alt := -1
	for i := tageTables - 1; i >= 0; i-- {
		e := &t.st.tables[i][res.idx[i]]
		if e.tag != res.tag[i] {
			continue
		}
		if res.provider == -1 {
			res.provider = i
			res.provPred = e.ctr >= 0
			res.weakNew = (e.ctr == 0 || e.ctr == -1) && e.u == 0
		} else {
			alt = i
			res.altpred = e.ctr >= 0
			break
		}
	}
	if res.provider == -1 {
		res.provPred = t.base.Predict(pc)
		res.altpred = res.provPred
	} else if alt == -1 {
		res.altpred = t.base.Predict(pc)
	}
	return res
}

// lookupCached returns lookup(pc), reusing the memoized result when it is
// provably still current (same pc, no TAGE mutation since, same bimodal
// version). useAltOnNA is not part of the key: it only steers selection in
// Predict/Update, never the lookup itself.
func (t *TAGE) lookupCached(pc uint64) *tageLookup {
	if t.memoOK && t.memoPC == pc && t.memoBimV == t.base.version {
		return &t.memo
	}
	t.memo = t.lookup(pc)
	t.memoPC = pc
	t.memoBimV = t.base.version
	t.memoOK = true
	return &t.memo
}

// Predict returns the TAGE prediction for pc.
func (t *TAGE) Predict(pc uint64) bool {
	lk := t.lookupCached(pc)
	if lk.provider >= 0 && lk.weakNew && t.st.useAltOnNA >= 0 {
		return lk.altpred
	}
	return lk.provPred
}

// Update trains TAGE with the actual outcome and advances global history.
// The bimodal base is always trained, keeping BIM state meaningful on its
// own (the property Ignite's BIM-only restore depends on).
func (t *TAGE) Update(pc uint64, taken bool) {
	lk := t.lookupCached(pc)
	t.memoOK = false // everything below mutates state lookups read; lk stays valid
	pred := lk.provPred
	if lk.provider >= 0 && lk.weakNew && t.st.useAltOnNA >= 0 {
		pred = lk.altpred
	}
	mispred := pred != taken

	if lk.provider >= 0 {
		e := &t.st.tables[lk.provider][lk.idx[lk.provider]]
		// useAltOnNA bookkeeping for weak new entries.
		if lk.weakNew && lk.provPred != lk.altpred {
			if lk.altpred == taken {
				if t.st.useAltOnNA < 7 {
					t.st.useAltOnNA++
				}
			} else if t.st.useAltOnNA > -8 {
				t.st.useAltOnNA--
			}
		}
		// Usefulness: provider correct and alt wrong.
		if lk.provPred == taken && lk.altpred != taken && e.u < 3 {
			e.u++
		}
		if taken {
			if e.ctr < 3 {
				e.ctr++
			}
		} else if e.ctr > -4 {
			e.ctr--
		}
	}
	t.base.Update(pc, taken)

	// Allocate on misprediction into a longer-history table.
	if mispred && lk.provider < tageTables-1 {
		t.allocate(lk, taken)
	}

	t.pushHistory(taken)
	t.tick++
	if t.tick >= 256*1024 {
		t.tick = 0
		t.ageUsefulness()
	}
}

// allocate claims an entry above lk's provider for the mispredicted branch,
// at the indices and tags lk computed: no history moved since the lookup.
func (t *TAGE) allocate(lk *tageLookup, taken bool) {
	start := lk.provider + 1
	// Randomize start a little to spread allocations (Seznec).
	if start < tageTables-1 && t.allocRNG.IntN(2) == 0 {
		start++
	}
	for i := start; i < tageTables; i++ {
		e := &t.st.tables[i][lk.idx[i]]
		if e.u == 0 {
			e.tag = lk.tag[i]
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	// No free entry: decay usefulness along the path.
	for i := start; i < tageTables; i++ {
		if e := &t.st.tables[i][lk.idx[i]]; e.u > 0 {
			e.u--
		}
	}
}

func (t *TAGE) ageUsefulness() {
	for i := range t.st.tables {
		tab := &t.st.tables[i]
		for j := range tab {
			if tab[j].u > 0 {
				tab[j].u--
			}
		}
	}
}

// pushHistory shifts one outcome into the global history and all folds.
func (t *TAGE) pushHistory(taken bool) {
	nb := uint32(0)
	if taken {
		nb = 1
	}
	h := &t.st.hist
	for i, hl := range tageHistLens {
		// The bit leaving table i's window: the one hl-1 branches back.
		old := uint32(h[(hl-1)>>6]>>((hl-1)&63)) & 1
		f, sh := &t.st.folds[i], &tageOutShift[i]
		f.idx = fold(f.idx, nb, old, tageIdxBits, sh.idx)
		f.tag = fold(f.tag, nb, old, tageTagBits, sh.tag)
		f.tag2 = fold(f.tag2, nb, old, tageTagBits-1, sh.tag2)
	}
	h[2] = (h[2]<<1 | h[1]>>63) & (1<<(tageMaxHist-128) - 1)
	h[1] = h[1]<<1 | h[0]>>63
	h[0] = h[0]<<1 | uint64(nb)
}

// Flush clears all tagged tables and history — the cold TAGE of a lukewarm
// invocation. The bimodal base is not touched.
func (t *TAGE) Flush() {
	t.st = tageState{}
	t.memoOK = false
}

// TAGESnapshot captures the complete TAGE state.
type TAGESnapshot struct{ st tageState }

// Snapshot copies the TAGE state (warm-TAGE studies and Ignite+TAGE).
func (t *TAGE) Snapshot() *TAGESnapshot { return &TAGESnapshot{t.st} }

// Restore reinstates a snapshot.
func (t *TAGE) Restore(s *TAGESnapshot) {
	t.st = s.st
	t.memoOK = false
}
