// Package ignite implements the paper's contribution: a record-and-restore
// mechanism for front-end microarchitectural state. Ignite monitors BTB
// insertions during one invocation of a serverless function, stores them as
// a delta-compressed control-flow stream in a per-container main-memory
// region, and on the next invocation replays the stream to restore the
// instruction working set (prefetched into L2), the BTB, the bimodal
// predictor (initialized weakly-taken), and the I-TLB.
package ignite

import (
	"fmt"

	"ignite/internal/cfg"
	"ignite/internal/memsys"
)

// CodecConfig sets the delta field widths of the metadata record. The
// paper's footnote 6 reports 7 bits for the branch-PC delta and 21 bits for
// the target delta as the best compression (Section 5.3 swaps the two
// numbers; we default to the footnote and make both configurable).
type CodecConfig struct {
	DeltaPCBits     uint // signed delta, previous target -> branch PC (words)
	DeltaTargetBits uint // signed delta, branch PC -> target (words)
	FullAddrBits    uint // full virtual-address width
}

// DefaultCodecConfig returns the paper's configuration.
func DefaultCodecConfig() CodecConfig {
	return CodecConfig{DeltaPCBits: 7, DeltaTargetBits: 21, FullAddrBits: 48}
}

// CompactBits returns the size of a compact record in bits.
func (c CodecConfig) CompactBits() int {
	return 1 + 3 + int(c.DeltaPCBits) + int(c.DeltaTargetBits)
}

// FullBits returns the size of a full record in bits.
func (c CodecConfig) FullBits() int { return 1 + 3 + 2*int(c.FullAddrBits) }

// Record is one decoded metadata entry: a control-flow discontinuity.
type Record struct {
	BranchPC uint64
	Target   uint64
	Kind     cfg.BranchKind
}

// kindBits encodes a branch kind in 3 bits. BranchNone never reaches the
// codec (fall-through blocks create no BTB entries).
func kindBits(k cfg.BranchKind) (uint64, error) {
	switch k {
	case cfg.BranchCond:
		return 0, nil
	case cfg.BranchUncond:
		return 1, nil
	case cfg.BranchCall:
		return 2, nil
	case cfg.BranchReturn:
		return 3, nil
	case cfg.BranchIndirectJump:
		return 4, nil
	case cfg.BranchIndirectCall:
		return 5, nil
	default:
		return 0, fmt.Errorf("ignite: unencodable branch kind %v", k)
	}
}

func bitsKind(v uint64) (cfg.BranchKind, error) {
	switch v {
	case 0:
		return cfg.BranchCond, nil
	case 1:
		return cfg.BranchUncond, nil
	case 2:
		return cfg.BranchCall, nil
	case 3:
		return cfg.BranchReturn, nil
	case 4:
		return cfg.BranchIndirectJump, nil
	case 5:
		return cfg.BranchIndirectCall, nil
	default:
		return 0, fmt.Errorf("ignite: bad kind bits %d", v)
	}
}

// fitsSigned reports whether v fits a signed field of `bits` bits.
func fitsSigned(v int64, bits uint) bool {
	if bits >= 64 {
		return true
	}
	lim := int64(1) << (bits - 1)
	return v >= -lim && v < lim
}

// BitWriter packs bit fields into a metadata region.
type BitWriter struct {
	region *memsys.Region
	cur    uint64 // bit accumulator, LSB-first
	nbits  uint
	full   bool
	bits   int // total bits written
}

// NewBitWriter wraps a region.
func NewBitWriter(r *memsys.Region) *BitWriter { return &BitWriter{region: r} }

// Put appends the low `n` bits of v. Once the region fills, the writer
// latches the full state and discards further input.
func (w *BitWriter) Put(v uint64, n uint) {
	if w.full || n == 0 {
		return
	}
	w.cur |= (v & ((1 << n) - 1)) << w.nbits
	w.nbits += n
	w.bits += int(n)
	for w.nbits >= 8 {
		if err := w.region.WriteByte(byte(w.cur)); err != nil {
			w.full = true
			return
		}
		w.cur >>= 8
		w.nbits -= 8
	}
}

// Flush pads the current byte with zeros and writes it out.
func (w *BitWriter) Flush() {
	if w.full || w.nbits == 0 {
		return
	}
	if err := w.region.WriteByte(byte(w.cur)); err != nil {
		w.full = true
		return
	}
	w.cur = 0
	w.nbits = 0
}

// Full reports whether the region overflowed.
func (w *BitWriter) Full() bool { return w.full }

// BitsWritten returns the total bits accepted so far.
func (w *BitWriter) BitsWritten() int { return w.bits }

// BitReader unpacks bit fields from a metadata region.
type BitReader struct {
	region *memsys.Region
	cur    uint64
	nbits  uint
	bits   int
}

// NewBitReader wraps a region (reading from its current read cursor).
func NewBitReader(r *memsys.Region) *BitReader { return &BitReader{region: r} }

// Take reads an n-bit field; ok is false at end of stream.
func (r *BitReader) Take(n uint) (v uint64, ok bool) {
	for r.nbits < n {
		b, more := r.region.NextByte()
		if !more {
			return 0, false
		}
		r.cur |= uint64(b) << r.nbits
		r.nbits += 8
	}
	v = r.cur & ((1 << n) - 1)
	r.cur >>= n
	r.nbits -= n
	r.bits += int(n)
	return v, true
}

// BitsRead returns the total bits consumed.
func (r *BitReader) BitsRead() int { return r.bits }

// Encoder turns BTB-insertion events into the compressed metadata stream.
// It holds the "last-inserted entry" register the paper describes: deltas
// are computed against the previous record's target.
type Encoder struct {
	cfg        CodecConfig
	w          *BitWriter
	prevTarget uint64
	hasPrev    bool

	Records        int
	CompactRecords int
}

// NewEncoder creates an encoder writing into region.
func NewEncoder(c CodecConfig, region *memsys.Region) *Encoder {
	return &Encoder{cfg: c, w: NewBitWriter(region)}
}

// Encode appends one record. It reports false when the region is full (the
// paper caps Ignite metadata at 120 KiB per function), and an error for an
// address wider than FullAddrBits, which no record format can hold.
func (e *Encoder) Encode(rec Record) (bool, error) {
	kb, err := kindBits(rec.Kind)
	if err != nil {
		return false, err
	}
	if (rec.BranchPC|rec.Target)>>e.cfg.FullAddrBits != 0 {
		return false, fmt.Errorf("ignite: record %#x->%#x wider than %d address bits",
			rec.BranchPC, rec.Target, e.cfg.FullAddrBits)
	}
	// Deltas in instruction words. They are exact only when the previous
	// target, the branch PC and the target are all word-aligned.
	dPC := (int64(rec.BranchPC) - int64(e.prevTarget)) / cfg.InstrBytes
	dTgt := (int64(rec.Target) - int64(rec.BranchPC)) / cfg.InstrBytes
	compact := e.hasPrev &&
		fitsSigned(dPC, e.cfg.DeltaPCBits) &&
		fitsSigned(dTgt, e.cfg.DeltaTargetBits) &&
		rec.BranchPC%cfg.InstrBytes == 0 && rec.Target%cfg.InstrBytes == 0 &&
		e.prevTarget%cfg.InstrBytes == 0

	if compact {
		e.w.Put(0, 1)
		e.w.Put(kb, 3)
		e.w.Put(uint64(dPC)&((1<<e.cfg.DeltaPCBits)-1), e.cfg.DeltaPCBits)
		e.w.Put(uint64(dTgt)&((1<<e.cfg.DeltaTargetBits)-1), e.cfg.DeltaTargetBits)
	} else {
		e.w.Put(1, 1)
		e.w.Put(kb, 3)
		e.w.Put(rec.BranchPC, e.cfg.FullAddrBits)
		e.w.Put(rec.Target, e.cfg.FullAddrBits)
	}
	if e.w.Full() {
		return false, nil
	}
	e.prevTarget = rec.Target
	e.hasPrev = true
	e.Records++
	if compact {
		e.CompactRecords++
	}
	return true, nil
}

// Finish flushes the final partial byte.
func (e *Encoder) Finish() { e.w.Flush() }

// BitsWritten returns the stream length in bits.
func (e *Encoder) BitsWritten() int { return e.w.BitsWritten() }

// Decoder reads the stream back, reconstructing full addresses.
type Decoder struct {
	cfg        CodecConfig
	r          *BitReader
	prevTarget uint64
}

// NewDecoder creates a decoder over region (from its read cursor).
func NewDecoder(c CodecConfig, region *memsys.Region) *Decoder {
	return &Decoder{cfg: c, r: NewBitReader(region)}
}

// signExtend interprets the low `bits` of v as signed.
func signExtend(v uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(v<<shift) >> shift
}

// Decode returns the next record; ok is false at end of stream.
func (d *Decoder) Decode() (rec Record, ok bool, err error) {
	format, ok := d.r.Take(1)
	if !ok {
		return Record{}, false, nil
	}
	kb, ok := d.r.Take(3)
	if !ok {
		return Record{}, false, nil // trailing flush padding
	}
	kind, err := bitsKind(kb)
	if err != nil {
		return Record{}, false, err
	}
	if format == 0 {
		dpcRaw, ok1 := d.r.Take(d.cfg.DeltaPCBits)
		dtgRaw, ok2 := d.r.Take(d.cfg.DeltaTargetBits)
		if !ok1 || !ok2 {
			return Record{}, false, nil
		}
		dPC := signExtend(dpcRaw, d.cfg.DeltaPCBits)
		dTgt := signExtend(dtgRaw, d.cfg.DeltaTargetBits)
		pc := uint64(int64(d.prevTarget) + dPC*cfg.InstrBytes)
		tgt := uint64(int64(pc) + dTgt*cfg.InstrBytes)
		d.prevTarget = tgt
		return Record{BranchPC: pc, Target: tgt, Kind: kind}, true, nil
	}
	pc, ok1 := d.r.Take(d.cfg.FullAddrBits)
	tgt, ok2 := d.r.Take(d.cfg.FullAddrBits)
	if !ok1 || !ok2 {
		return Record{}, false, nil
	}
	d.prevTarget = tgt
	return Record{BranchPC: pc, Target: tgt, Kind: kind}, true, nil
}

// BitsRead returns the stream bits consumed so far.
func (d *Decoder) BitsRead() int { return d.r.BitsRead() }
