package ignite

import (
	"fmt"

	"ignite/internal/btb"
	"ignite/internal/cfg"
	"ignite/internal/engine"
	"ignite/internal/memsys"
	"ignite/internal/obs"
)

// MaxMetadataBytes is the paper's per-function metadata cap (120 KiB).
const MaxMetadataBytes = 120 << 10

func toBTBEntry(rec Record) btb.Entry {
	return btb.Entry{PC: rec.BranchPC, Target: rec.Target, Kind: rec.Kind}
}

func branchCond() cfg.BranchKind { return cfg.BranchCond }

// Config bundles all Ignite parameters.
type Config struct {
	Codec         CodecConfig
	Replay        ReplayConfig
	MetadataBytes int
	// DoubleBuffer runs record and replay simultaneously with two
	// metadata regions, letting Ignite track a branch working set that
	// evolves across invocations (Section 4.3).
	DoubleBuffer bool
}

// DefaultConfig returns the paper's Ignite configuration.
func DefaultConfig() Config {
	return Config{
		Codec:         DefaultCodecConfig(),
		Replay:        DefaultReplayConfig(),
		MetadataBytes: MaxMetadataBytes,
	}
}

// Ignite couples a recorder and a replayer for one function container and
// exposes the control-register protocol the operating system drives
// (Section 4.3). Attach it to an engine with Install.
type Ignite struct {
	cfg  Config
	eng  *engine.Engine
	regs ControlRegs

	regionA *memsys.Region
	regionB *memsys.Region
	rec     *Recorder
	rep     *Replayer
}

// ControlRegs models Ignite's architectural control registers: base/size of
// the metadata region and the record/replay enable bits. The register
// values are visible for inspection; the simulator manipulates them through
// the OS-level methods below, exactly as a kernel driver would.
type ControlRegs struct {
	RecordBase   uint64
	RecordSize   uint64
	RecordEnable bool
	ReplayBase   uint64
	ReplaySize   uint64
	ReplayEnable bool
}

// New creates an Ignite instance for a container, allocating its metadata
// region(s) from the store.
func New(cfg Config, eng *engine.Engine, store *memsys.Store, container string) *Ignite {
	if cfg.MetadataBytes <= 0 {
		cfg.MetadataBytes = MaxMetadataBytes
	}
	ig := &Ignite{cfg: cfg, eng: eng}
	ig.regionA = store.Allocate(container+"/ignite-a", cfg.MetadataBytes)
	if cfg.DoubleBuffer {
		ig.regionB = store.Allocate(container+"/ignite-b", cfg.MetadataBytes)
	}
	ig.rec = NewRecorder(cfg.Codec, ig.regionA, eng.Traffic())
	ig.rep = NewReplayer(cfg.Replay, cfg.Codec, eng, ig.regionA, eng.Traffic())
	return ig
}

// Install attaches the record tap to the engine's BTB and registers the
// replayer as a companion. Call once after engine construction.
func (ig *Ignite) Install() {
	ig.rec.Attach(ig.eng.BTB())
	ig.eng.AddCompanion(ig.rep)
}

// Recorder exposes the record component.
func (ig *Ignite) Recorder() *Recorder { return ig.rec }

// Replayer exposes the replay component.
func (ig *Ignite) Replayer() *Replayer { return ig.rep }

// Regs returns the current control-register values.
func (ig *Ignite) Regs() ControlRegs { return ig.regs }

// Config returns the configuration the instance was built with.
func (ig *Ignite) Config() Config { return ig.cfg }

// StartRecord models the OS configuring the record registers and setting
// the record-enable bit before launching a fresh function instance.
func (ig *Ignite) StartRecord() {
	region := ig.recordRegion()
	ig.regs.RecordBase = region.Base
	ig.regs.RecordSize = uint64(region.Capacity())
	ig.regs.RecordEnable = true
	ig.rec = NewRecorder(ig.cfg.Codec, region, ig.eng.Traffic())
	ig.rec.Attach(ig.eng.BTB())
	ig.rec.Start()
}

// StopRecord clears the record-enable bit and finalizes the stream.
func (ig *Ignite) StopRecord() {
	ig.regs.RecordEnable = false
	ig.rec.Stop()
}

// ArmReplay models the OS pointing the replay registers at the recorded
// metadata and setting the replay-enable bit; replay starts when the next
// invocation is scheduled on the core.
func (ig *Ignite) ArmReplay() {
	region := ig.replayRegion()
	ig.regs.ReplayBase = region.Base
	ig.regs.ReplaySize = uint64(region.Used())
	ig.regs.ReplayEnable = true
	ig.rep.SetRegion(region)
	ig.rep.Arm()
	// With double buffering the OS activates record and replay together
	// (Section 4.3): replay streams the last invocation's metadata while
	// the recorder captures an evolving working set into the other
	// region — the paper's worst-case metadata bandwidth.
	if ig.cfg.DoubleBuffer {
		ig.StartRecord()
	}
}

// DisarmReplay clears the replay-enable bit.
func (ig *Ignite) DisarmReplay() {
	ig.regs.ReplayEnable = false
	ig.rep.Disarm()
}

// recordRegion picks the region the next record phase writes.
func (ig *Ignite) recordRegion() *memsys.Region {
	if ig.cfg.DoubleBuffer && ig.regs.ReplayEnable && ig.regs.ReplayBase == ig.regionA.Base {
		return ig.regionB
	}
	return ig.regionA
}

// replayRegion picks the most recently recorded region.
func (ig *Ignite) replayRegion() *memsys.Region {
	if ig.cfg.DoubleBuffer && ig.regs.RecordBase == ig.regionB.Base && ig.regionB.Used() > 0 {
		return ig.regionB
	}
	return ig.regionA
}

// MetadataUsed returns the bytes of metadata currently recorded.
func (ig *Ignite) MetadataUsed() int {
	return ig.recordRegionUsed()
}

func (ig *Ignite) recordRegionUsed() int {
	used := ig.regionA.Used()
	if ig.regionB != nil && ig.regionB.Used() > used {
		used = ig.regionB.Used()
	}
	return used
}

// RegisterMetrics exposes the instance's record/replay statistics through
// the obs registry as read-through sources.
func (ig *Ignite) RegisterMetrics(reg *obs.Registry, labels obs.Labels) {
	l := labels.With("component", "ignite")
	reg.CounterFunc("ignite.records", l, func() uint64 { return uint64(ig.rec.Records()) })
	reg.CounterFunc("ignite.compact_records", l, func() uint64 { return uint64(ig.rec.CompactRecords()) })
	reg.CounterFunc("ignite.dropped_records", l, func() uint64 { return uint64(ig.rec.Dropped) })
	reg.GaugeFunc("ignite.metadata_bytes", l, func() float64 { return float64(ig.MetadataUsed()) })
	reg.CounterFunc("ignite.restored", l, func() uint64 { return uint64(ig.rep.Restored) })
	reg.CounterFunc("ignite.bim_set", l, func() uint64 { return uint64(ig.rep.BIMSet) })
	reg.CounterFunc("ignite.lines_prefetched", l, func() uint64 { return uint64(ig.rep.LinesPrefetched) })
	reg.CounterFunc("ignite.throttle_stalls", l, func() uint64 { return uint64(ig.rep.ThrottleStalls) })
}

// String summarizes the instance state.
func (ig *Ignite) String() string {
	return fmt.Sprintf("ignite{meta=%dB, rec=%v, rep=%v}",
		ig.recordRegionUsed(), ig.regs.RecordEnable, ig.regs.ReplayEnable)
}
