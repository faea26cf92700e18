package ignite

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ignite/internal/cfg"
	"ignite/internal/memsys"
)

func roundtrip(t *testing.T, codec CodecConfig, recs []Record) []Record {
	t.Helper()
	region := memsys.NewRegion(0, 1<<20)
	enc := NewEncoder(codec, region)
	for _, r := range recs {
		ok, err := enc.Encode(r)
		if err != nil || !ok {
			t.Fatalf("encode %+v: ok=%v err=%v", r, ok, err)
		}
	}
	enc.Finish()
	region.ResetRead()
	dec := NewDecoder(codec, region)
	var out []Record
	for {
		r, ok, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

func TestCodecRoundtripSimple(t *testing.T) {
	recs := []Record{
		{BranchPC: 0x400010, Target: 0x400040, Kind: cfg.BranchCond},
		{BranchPC: 0x400050, Target: 0x400100, Kind: cfg.BranchUncond},
		{BranchPC: 0x400104, Target: 0x900000, Kind: cfg.BranchCall}, // far: full record
		{BranchPC: 0x900020, Target: 0x400108, Kind: cfg.BranchReturn},
	}
	got := roundtrip(t, DefaultCodecConfig(), recs)
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestCodecCompactVsFull(t *testing.T) {
	codec := DefaultCodecConfig()
	region := memsys.NewRegion(0, 1<<16)
	enc := NewEncoder(codec, region)
	// First record is always full (no previous target).
	enc.Encode(Record{BranchPC: 0x400000, Target: 0x400040, Kind: cfg.BranchCond})
	// Nearby branch: compact.
	enc.Encode(Record{BranchPC: 0x400050, Target: 0x400080, Kind: cfg.BranchCond})
	// Distant target: full.
	enc.Encode(Record{BranchPC: 0x400090, Target: 0x80000000, Kind: cfg.BranchCall})
	enc.Finish()
	if enc.Records != 3 || enc.CompactRecords != 1 {
		t.Errorf("records=%d compact=%d, want 3/1", enc.Records, enc.CompactRecords)
	}
	// Size: 2 full (100b) + 1 compact (32b) = 232 bits -> 29 bytes.
	wantBits := 2*codec.FullBits() + codec.CompactBits()
	if enc.BitsWritten() != wantBits {
		t.Errorf("bits = %d, want %d", enc.BitsWritten(), wantBits)
	}
}

func TestCodecNegativeDeltas(t *testing.T) {
	// Backward branch (loop): target below branch PC.
	recs := []Record{
		{BranchPC: 0x400100, Target: 0x400180, Kind: cfg.BranchUncond},
		{BranchPC: 0x4001a0, Target: 0x400184, Kind: cfg.BranchCond}, // backward, near
	}
	got := roundtrip(t, DefaultCodecConfig(), recs)
	if got[1] != recs[1] {
		t.Errorf("backward branch: got %+v want %+v", got[1], recs[1])
	}
}

func TestCodecRegionFullStopsCleanly(t *testing.T) {
	codec := DefaultCodecConfig()
	region := memsys.NewRegion(0, 32) // tiny
	enc := NewEncoder(codec, region)
	wrote := 0
	for i := 0; i < 100; i++ {
		ok, err := enc.Encode(Record{
			BranchPC: uint64(0x400000 + i*0x1000), // far apart: all full records
			Target:   uint64(0x800000 + i*0x2000),
			Kind:     cfg.BranchCond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		wrote++
	}
	if wrote == 0 || wrote >= 100 {
		t.Fatalf("wrote %d records into a 32-byte region", wrote)
	}
	enc.Finish()
	// Decoding must terminate without error and yield <= wrote records.
	region.ResetRead()
	dec := NewDecoder(codec, region)
	n := 0
	for {
		_, ok, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n > wrote {
		t.Errorf("decoded %d > encoded %d", n, wrote)
	}
}

func TestCodecBitWidths(t *testing.T) {
	c := DefaultCodecConfig()
	if c.CompactBits() != 1+3+7+21 {
		t.Errorf("compact bits = %d", c.CompactBits())
	}
	if c.FullBits() != 1+3+96 {
		t.Errorf("full bits = %d", c.FullBits())
	}
}

// Property: any sequence of word-aligned records in the 48-bit address
// space round-trips exactly.
func TestCodecRoundtripProperty(t *testing.T) {
	kinds := []cfg.BranchKind{cfg.BranchCond, cfg.BranchUncond, cfg.BranchCall,
		cfg.BranchReturn, cfg.BranchIndirectJump, cfg.BranchIndirectCall}
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^99))
		count := int(n%40) + 1
		recs := make([]Record, count)
		pc := uint64(0x400000)
		for i := range recs {
			// Mix of local and far control flow.
			if rng.IntN(4) == 0 {
				pc = rng.Uint64N(1<<47) &^ 3
			} else {
				pc += uint64(rng.IntN(64)) * 4
			}
			tgt := (pc + uint64(rng.IntN(1<<12))*4 - uint64(rng.IntN(1<<11))*4) &^ 3
			tgt &= (1 << 47) - 1
			recs[i] = Record{BranchPC: pc, Target: tgt, Kind: kinds[rng.IntN(len(kinds))]}
			pc = tgt
		}
		got := roundtripNoT(recs)
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func roundtripNoT(recs []Record) []Record {
	region := memsys.NewRegion(0, 1<<20)
	enc := NewEncoder(DefaultCodecConfig(), region)
	for _, r := range recs {
		if ok, err := enc.Encode(r); err != nil || !ok {
			return nil
		}
	}
	enc.Finish()
	region.ResetRead()
	dec := NewDecoder(DefaultCodecConfig(), region)
	var out []Record
	for {
		r, ok, err := dec.Decode()
		if err != nil || !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// TestCodecUnalignedPrevTarget: a compact record's PC delta is taken from
// the previous target, so an unaligned previous target forces a full
// record; before the fix the second record decoded as 0x100E->0x13FE.
func TestCodecUnalignedPrevTarget(t *testing.T) {
	recs := []Record{
		{BranchPC: 0x1000, Target: 0x1002, Kind: cfg.BranchIndirectJump},
		{BranchPC: 0x1010, Target: 0x1400, Kind: cfg.BranchUncond},
	}
	got := roundtrip(t, DefaultCodecConfig(), recs)
	if len(got) != 2 || got[1] != recs[1] {
		t.Errorf("got %+v, want %+v", got, recs)
	}
}

func TestCodecRejectsWideAddress(t *testing.T) {
	codec := DefaultCodecConfig()
	enc := NewEncoder(codec, memsys.NewRegion(0, 1<<10))
	for _, rec := range []Record{
		{BranchPC: 1 << codec.FullAddrBits, Target: 0x1000, Kind: cfg.BranchCall},
		{BranchPC: 0x1000, Target: 1<<codec.FullAddrBits | 0x40, Kind: cfg.BranchCall},
	} {
		if ok, err := enc.Encode(rec); ok || err == nil {
			t.Errorf("Encode(%+v) = %v, %v; want an error", rec, ok, err)
		}
	}
	if enc.Records != 0 || enc.BitsWritten() != 0 {
		t.Errorf("rejected records wrote %d records, %d bits", enc.Records, enc.BitsWritten())
	}
}

// codecRecords reads the fuzz input as 13-byte records: a kind byte and two
// 6-byte little-endian addresses, so every address is below 2^48 and of any
// alignment.
func codecRecords(data []byte) []Record {
	addr := func(b []byte) uint64 {
		var v uint64
		for i := 5; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		return v
	}
	var recs []Record
	for ; len(data) >= 13; data = data[13:] {
		recs = append(recs, Record{
			Kind:     cfg.BranchKind(1 + data[0]%6), // cond .. icall
			BranchPC: addr(data[1:7]),
			Target:   addr(data[7:13]),
		})
	}
	return recs
}

// FuzzCodec: decoding arbitrary bytes as a metadata stream never panics and
// ends within the region, and the input read as records round-trips
// exactly through a region sized to hold them all as full records.
func FuzzCodec(f *testing.F) {
	codec := DefaultCodecConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := memsys.NewRegion(0, len(data))
		raw.Write(data)
		dec := NewDecoder(codec, raw)
		for {
			if _, ok, err := dec.Decode(); !ok || err != nil {
				break
			}
		}
		if dec.BitsRead() > 8*len(data) || raw.ReadPos() > raw.Used() {
			t.Fatalf("decoder read %d bits (cursor %d) of a %d-byte region", dec.BitsRead(), raw.ReadPos(), len(data))
		}

		recs := codecRecords(data)
		region := memsys.NewRegion(0, (len(recs)*codec.FullBits()+7)/8)
		enc := NewEncoder(codec, region)
		for _, rec := range recs {
			if ok, err := enc.Encode(rec); !ok || err != nil {
				t.Fatalf("Encode(%+v) = %v, %v", rec, ok, err)
			}
		}
		enc.Finish()
		dec = NewDecoder(codec, region)
		for i, want := range recs {
			got, ok, err := dec.Decode()
			if !ok || err != nil || got != want {
				t.Fatalf("record %d decoded as %+v (ok %v, err %v), want %+v", i, got, ok, err, want)
			}
		}
		if got, ok, err := dec.Decode(); ok || err != nil {
			t.Fatalf("decoded %+v (err %v) past the %d records encoded", got, err, len(recs))
		}
	})
}
