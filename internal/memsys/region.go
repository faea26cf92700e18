package memsys

import (
	"errors"
	"fmt"
)

// ErrRegionFull is returned when a sequential write exceeds the region's
// capacity; recorders treat it as "stop recording" (the paper caps Ignite
// metadata at 120 KiB and Jukebox at 16 KiB per direction).
var ErrRegionFull = errors.New("memsys: metadata region full")

// Region is a contiguous per-container metadata region in main memory,
// written sequentially by a recorder and read sequentially by a replayer
// (Section 4.3 of the paper). Its buffer grows with writes up to the
// capacity, so a region holds only the bytes recorded into it.
type Region struct {
	Base     uint64
	capacity int
	buf      []byte // the written bytes
	rpos     int
}

// NewRegion returns an empty region of the given capacity at base.
func NewRegion(base uint64, capacity int) *Region {
	return &Region{Base: base, capacity: capacity}
}

// Capacity returns the region's size in bytes.
func (r *Region) Capacity() int { return r.capacity }

// Used returns the number of bytes written.
func (r *Region) Used() int { return len(r.buf) }

// Remaining returns the unwritten capacity.
func (r *Region) Remaining() int { return r.capacity - len(r.buf) }

// Write appends p to the region. It writes nothing and returns
// ErrRegionFull when p does not fit.
func (r *Region) Write(p []byte) (int, error) {
	if len(p) > r.Remaining() {
		return 0, ErrRegionFull
	}
	r.buf = append(r.buf, p...)
	return len(p), nil
}

// WriteByte appends one byte.
func (r *Region) WriteByte(b byte) error {
	if r.Remaining() < 1 {
		return ErrRegionFull
	}
	r.buf = append(r.buf, b)
	return nil
}

// Bytes returns the written contents (not a copy).
func (r *Region) Bytes() []byte { return r.buf }

// ResetWrite discards the contents for re-recording; the buffer is reused.
func (r *Region) ResetWrite() { r.buf = r.buf[:0]; r.rpos = 0 }

// ResetRead rewinds the replay cursor.
func (r *Region) ResetRead() { r.rpos = 0 }

// NextByte returns the next byte of the stream, or false at end.
func (r *Region) NextByte() (byte, bool) {
	if r.rpos >= len(r.buf) {
		return 0, false
	}
	b := r.buf[r.rpos]
	r.rpos++
	return b, true
}

// ReadPos returns the replay cursor position.
func (r *Region) ReadPos() int { return r.rpos }

// Store manages the per-container metadata regions the operating system
// allocates when a function instance starts (Section 4.3). Each container
// may hold several independent regions (e.g. double-buffered record and
// replay streams).
type Store struct {
	regions  map[string]*Region
	nextBase uint64
}

// NewStore creates an empty metadata store. Region base addresses are
// assigned from a reserved range far above the code segment.
func NewStore() *Store {
	return &Store{
		regions:  make(map[string]*Region),
		nextBase: 0x7f00_0000_0000,
	}
}

// Allocate creates (or replaces) the named region with the given capacity.
func (s *Store) Allocate(name string, capacity int) *Region {
	r := NewRegion(s.nextBase, capacity)
	// Keep regions page-aligned and non-overlapping.
	pages := uint64((capacity + 4095) / 4096)
	s.nextBase += (pages + 1) * 4096
	s.regions[name] = r
	return r
}

// Lookup returns the named region, or an error when absent.
func (s *Store) Lookup(name string) (*Region, error) {
	r, ok := s.regions[name]
	if !ok {
		return nil, fmt.Errorf("memsys: no metadata region %q", name)
	}
	return r, nil
}

// Release frees the named region.
func (s *Store) Release(name string) { delete(s.regions, name) }

// TotalBytes returns the summed capacity of all live regions — the
// per-server metadata footprint that the paper keeps off-chip.
func (s *Store) TotalBytes() int {
	total := 0
	for _, r := range s.regions {
		total += r.Capacity()
	}
	return total
}
