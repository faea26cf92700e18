package memsys

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"ignite/internal/cache"
)

func TestRegionWriteReadRoundtrip(t *testing.T) {
	r := NewRegion(0x1000, 16)
	if _, err := r.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteByte(4); err != nil {
		t.Fatal(err)
	}
	if r.Used() != 4 || r.Remaining() != 12 {
		t.Fatalf("used=%d remaining=%d", r.Used(), r.Remaining())
	}
	var got []byte
	for {
		b, ok := r.NextByte()
		if !ok {
			break
		}
		got = append(got, b)
	}
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("read back %v", got)
	}
}

func TestRegionFull(t *testing.T) {
	r := NewRegion(0, 4)
	if _, err := r.Write([]byte{1, 2, 3, 4, 5}); !errors.Is(err, ErrRegionFull) {
		t.Errorf("overlong write err = %v", err)
	}
	if r.Used() != 0 {
		t.Error("partial write happened")
	}
	r.Write([]byte{1, 2, 3, 4})
	if err := r.WriteByte(9); !errors.Is(err, ErrRegionFull) {
		t.Errorf("write to full region err = %v", err)
	}
}

func TestRegionReset(t *testing.T) {
	r := NewRegion(0, 8)
	r.Write([]byte{1, 2})
	r.NextByte()
	r.ResetRead()
	if b, ok := r.NextByte(); !ok || b != 1 {
		t.Error("ResetRead did not rewind")
	}
	r.ResetWrite()
	if r.Used() != 0 || r.ReadPos() != 0 {
		t.Error("ResetWrite incomplete")
	}
}

// TestRegionGrowsWithWrites pins that a region holds the bytes written to
// it, not its capacity: a 4 MiB region given 4 KiB allocates far less than
// 4 MiB, still refuses a write past its capacity, and rewrites its buffer
// in place after ResetWrite.
func TestRegionGrowsWithWrites(t *testing.T) {
	chunk := make([]byte, 1024)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRegion(0, 4<<20)
	for range 4 {
		if _, err := r.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
		t.Errorf("a 4 MiB region holding %d bytes allocated %d bytes", r.Used(), alloc)
	}
	if r.Capacity() != 4<<20 || r.Remaining() != 4<<20-4096 {
		t.Errorf("capacity %d, remaining %d", r.Capacity(), r.Remaining())
	}

	if _, err := r.Write(make([]byte, r.Remaining()+1)); !errors.Is(err, ErrRegionFull) || r.Used() != 4096 {
		t.Errorf("write past capacity: err %v, used %d", err, r.Used())
	}
	if _, err := r.Write(make([]byte, r.Remaining())); err != nil || r.Remaining() != 0 {
		t.Fatalf("write to capacity: err %v, remaining %d", err, r.Remaining())
	}
	if err := r.WriteByte(1); !errors.Is(err, ErrRegionFull) {
		t.Errorf("write to a full region: err %v", err)
	}

	first := &r.Bytes()[0]
	r.ResetWrite()
	if err := r.WriteByte(7); err != nil {
		t.Fatal(err)
	}
	if got := r.Bytes(); len(got) != 1 || got[0] != 7 || &got[0] != first {
		t.Errorf("after ResetWrite: bytes %v, in place %v", got, &got[0] == first)
	}
}

func TestStoreAllocateLookupRelease(t *testing.T) {
	s := NewStore()
	r1 := s.Allocate("fn1/record", 1024)
	r2 := s.Allocate("fn2/record", 2048)
	if r1.Base == r2.Base {
		t.Error("regions share a base address")
	}
	if r2.Base < r1.Base+1024 {
		t.Error("regions overlap")
	}
	got, err := s.Lookup("fn1/record")
	if err != nil || got != r1 {
		t.Errorf("Lookup = %v, %v", got, err)
	}
	if s.TotalBytes() != 3072 {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
	s.Release("fn1/record")
	if _, err := s.Lookup("fn1/record"); err == nil {
		t.Error("lookup after release succeeded")
	}
}

func TestTrafficUsefulUselessSplit(t *testing.T) {
	tr := NewTraffic()
	// Correct-path demand fetch: immediately touched by hierarchy.
	tr.MemFetch(0x000, cache.SrcDemand)
	tr.DemandTouch(0x000)
	// Wrong-path fetch never touched.
	tr.MemFetch(0x040, cache.SrcWrongPath)
	// Prefetch that gets used.
	tr.MemFetch(0x080, cache.SrcJukebox)
	tr.DemandTouch(0x080)
	// Prefetch never used.
	tr.MemFetch(0x0c0, cache.SrcIgnite)

	rep := tr.Report()
	if rep.UsefulInstrBytes != 2*LineBytes {
		t.Errorf("useful = %d, want %d", rep.UsefulInstrBytes, 2*LineBytes)
	}
	if rep.UselessInstrBytes != 2*LineBytes {
		t.Errorf("useless = %d, want %d", rep.UselessInstrBytes, 2*LineBytes)
	}
}

func TestTrafficDataNotClassified(t *testing.T) {
	tr := NewTraffic()
	tr.MemFetch(0x100, cache.SrcData)
	rep := tr.Report()
	if rep.InstrBytes() != 0 {
		t.Errorf("data fetch classified as instruction traffic: %+v", rep)
	}
	if tr.MemFetchLines(cache.SrcData) != 1 {
		t.Error("data fetch not counted at all")
	}
}

func TestTrafficRefetchCounting(t *testing.T) {
	tr := NewTraffic()
	// Same line fetched twice (evicted in between), touched: both fetches
	// are bandwidth and both are useful.
	tr.MemFetch(0x200, cache.SrcDemand)
	tr.DemandTouch(0x200)
	tr.MemFetch(0x200, cache.SrcDemand)
	rep := tr.Report()
	if rep.UsefulInstrBytes != 2*LineBytes || rep.UselessInstrBytes != 0 {
		t.Errorf("refetch split = %+v", rep)
	}
}

func TestTrafficSourceAccuracy(t *testing.T) {
	tr := NewTraffic()
	tr.Inserted(0x300, cache.SrcIgnite, cache.LvlL2)
	tr.Inserted(0x340, cache.SrcIgnite, cache.LvlL2)
	tr.Inserted(0x380, cache.SrcIgnite, cache.LvlL2)
	tr.DemandTouch(0x300)
	tr.DemandTouch(0x340)
	ins, useful := tr.SourceAccuracy(cache.SrcIgnite)
	if ins != 3 || useful != 2 {
		t.Errorf("accuracy = %d/%d, want 2/3", useful, ins)
	}
	// Touch of an unknown line is a no-op.
	tr.DemandTouch(0x999)
}

func TestTrafficMetadataBytes(t *testing.T) {
	tr := NewTraffic()
	tr.AddRecordBytes(100)
	tr.AddReplayBytes(250)
	rep := tr.Report()
	if rep.RecordMetaBytes != 100 || rep.ReplayMetaBytes != 250 {
		t.Errorf("metadata = %+v", rep)
	}
	if rep.Total() != 350 {
		t.Errorf("total = %d", rep.Total())
	}
}

func TestTrafficReset(t *testing.T) {
	tr := NewTraffic()
	tr.MemFetch(0x40, cache.SrcDemand)
	tr.AddRecordBytes(10)
	tr.Reset()
	rep := tr.Report()
	if rep.Total() != 0 {
		t.Errorf("after reset: %+v", rep)
	}
}

// Property: useful + useless always equals 64 * total instruction fetches.
func TestTrafficConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := NewTraffic()
		fetches := 0
		for i, op := range ops {
			la := uint64(i%32) * 64
			switch op % 4 {
			case 0:
				tr.MemFetch(la, cache.SrcDemand)
				tr.DemandTouch(la)
				fetches++
			case 1:
				tr.MemFetch(la, cache.SrcWrongPath)
				fetches++
			case 2:
				tr.MemFetch(la, cache.SrcBoomerang)
				fetches++
			case 3:
				tr.DemandTouch(la)
			}
		}
		rep := tr.Report()
		return rep.InstrBytes() == uint64(fetches)*LineBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
