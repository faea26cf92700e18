package ignite

import (
	"ignite/internal/btb"
	"ignite/internal/memsys"
)

// Recorder implements Ignite's record logic (Section 4.1): it taps BTB
// insertion events — which in modern cores happen only when a taken branch
// commits — and appends each new entry to the per-container metadata region
// as a delta-compressed record. The recorder needs no other on-chip state
// than the last-inserted-entry register held by the Encoder.
type Recorder struct {
	codec   CodecConfig
	region  *memsys.Region
	enc     *Encoder
	enabled bool
	traffic TrafficSink

	// Dropped counts insertions lost because the region filled.
	Dropped int
}

// TrafficSink receives metadata bandwidth accounting; implemented by
// *memsys.Traffic.
type TrafficSink interface {
	AddRecordBytes(n int)
	AddReplayBytes(n int)
}

// NewRecorder creates a recorder writing into region. traffic may be nil.
func NewRecorder(codec CodecConfig, region *memsys.Region, traffic TrafficSink) *Recorder {
	return &Recorder{
		codec:   codec,
		region:  region,
		enc:     NewEncoder(codec, region),
		traffic: traffic,
	}
}

// Attach hooks the recorder to the BTB's insertion events. Attach once;
// enable/disable per invocation with Start/Stop.
func (r *Recorder) Attach(b *btb.BTB) {
	b.OnInsert(r.OnBTBInsert)
}

// Start begins recording into a fresh region.
func (r *Recorder) Start() {
	r.region.ResetWrite()
	r.enc = NewEncoder(r.codec, r.region)
	r.Dropped = 0
	r.enabled = true
}

// Stop finalizes the stream.
func (r *Recorder) Stop() {
	if !r.enabled {
		return
	}
	r.enabled = false
	before := r.region.Used()
	r.enc.Finish()
	if r.traffic != nil && r.region.Used() > before {
		r.traffic.AddRecordBytes(r.region.Used() - before)
	}
}

// Records returns the number of entries recorded so far.
func (r *Recorder) Records() int { return r.enc.Records }

// CompactRecords returns how many records used the compact delta format.
func (r *Recorder) CompactRecords() int { return r.enc.CompactRecords }

// OnBTBInsert observes one commit-time BTB insertion.
func (r *Recorder) OnBTBInsert(e btb.Entry) {
	if !r.enabled {
		return
	}
	before := r.region.Used()
	ok, err := r.enc.Encode(Record{BranchPC: e.PC, Target: e.Target, Kind: e.Kind})
	if err != nil || !ok {
		r.Dropped++
		return
	}
	if r.traffic != nil && r.region.Used() > before {
		r.traffic.AddRecordBytes(r.region.Used() - before)
	}
}
