package ignite

import (
	"testing"

	"ignite/internal/bpred"
	"ignite/internal/btb"
	"ignite/internal/cfg"
	"ignite/internal/engine"
	"ignite/internal/memsys"
	"ignite/internal/obs"
	"ignite/internal/workload"
)

func testEngine(t *testing.T) (*engine.Engine, workload.Spec) {
	t.Helper()
	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.FDPEnabled = true
	return engine.New(prog, cfg), spec
}

func TestRecorderCapturesBTBInsertions(t *testing.T) {
	eng, spec := testEngine(t)
	region := memsys.NewRegion(0, MaxMetadataBytes)
	rec := NewRecorder(DefaultCodecConfig(), region, eng.Traffic())
	rec.Attach(eng.BTB())
	rec.Start()
	eng.Thrash(1)
	if _, err := eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: spec.MaxInstr() / 4}); err != nil {
		t.Fatal(err)
	}
	rec.Stop()
	if rec.Records() < 1000 {
		t.Fatalf("recorded only %d entries", rec.Records())
	}
	if region.Used() == 0 {
		t.Fatal("no metadata written")
	}
	// Metadata bandwidth accounted.
	rep := eng.Traffic().Report()
	if rep.RecordMetaBytes == 0 {
		t.Error("record bandwidth not accounted")
	}
}

func TestRecorderDisabledRecordsNothing(t *testing.T) {
	eng, spec := testEngine(t)
	region := memsys.NewRegion(0, MaxMetadataBytes)
	rec := NewRecorder(DefaultCodecConfig(), region, nil)
	rec.Attach(eng.BTB())
	// Never started.
	eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: spec.MaxInstr() / 8})
	if rec.Records() != 0 || region.Used() != 0 {
		t.Error("disabled recorder captured data")
	}
}

func TestReplayRestoresState(t *testing.T) {
	eng, spec := testEngine(t)
	store := memsys.NewStore()
	ig := New(DefaultConfig(), eng, store, "test")
	ig.Install()

	// Record a lukewarm invocation.
	eng.Thrash(1)
	ig.StartRecord()
	if _, err := eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: spec.MaxInstr() / 2}); err != nil {
		t.Fatal(err)
	}
	ig.StopRecord()
	ig.ArmReplay()

	// Thrash, then drain the replay without running the core.
	eng.Thrash(2)
	if eng.BTB().Occupancy() != 0 {
		t.Fatal("BTB not empty after thrash")
	}
	ig.Replayer().BeginInvocation()
	ig.Replayer().Drain()

	if got := eng.BTB().Occupancy(); got < 500 {
		t.Errorf("replay restored only %d BTB entries", got)
	}
	if ig.Replayer().BIMSet == 0 {
		t.Error("no BIM entries initialized")
	}
	if ig.Replayer().LinesPrefetched == 0 {
		t.Error("no instruction lines prefetched")
	}
	// Restored BIM counters should be weakly taken.
	rep := eng.Traffic().Report()
	if rep.ReplayMetaBytes == 0 {
		t.Error("replay bandwidth not accounted")
	}
}

// recordedIgnite arms a replay over a half-invocation recording made with a
// tiny throttle threshold, so the stream is much larger than the threshold.
func recordedIgnite(t *testing.T, threshold int) (*engine.Engine, *Ignite) {
	t.Helper()
	eng, spec := testEngine(t)
	store := memsys.NewStore()
	cfg := DefaultConfig()
	cfg.Replay.ThrottleThreshold = threshold
	ig := New(cfg, eng, store, "test")
	ig.Install()

	eng.Thrash(1)
	ig.StartRecord()
	if _, err := eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: spec.MaxInstr() / 2}); err != nil {
		t.Fatal(err)
	}
	ig.StopRecord()
	ig.ArmReplay()
	eng.Thrash(2)
	return eng, ig
}

func TestReplayThrottling(t *testing.T) {
	// The throttle applies to the rate-limited Tick path: with nothing
	// touching the BTB, background replay must pause at ~threshold
	// untouched restored entries instead of racing through the stream.
	eng, ig := recordedIgnite(t, 100)
	r := ig.Replayer()
	r.BeginInvocation()
	for i := 0; i < 2000; i++ {
		r.Tick(uint64(i), 1)
	}
	if got := eng.BTB().RestoredUntouched(); got > 100+8 {
		t.Errorf("throttle exceeded: %d untouched restored entries", got)
	}
	if r.Done() {
		t.Error("replay claims done while throttled")
	}
	if r.ThrottleStalls == 0 {
		t.Error("no throttle stalls counted while paused")
	}
}

func TestDrainIgnoresThrottle(t *testing.T) {
	// Regression: Drain used to stop at the throttle threshold and leave
	// the replay half-consumed while still active. Its contract is to run
	// the stream to completion ignoring rate limits.
	eng, ig := recordedIgnite(t, 100)
	col := &obs.Collector{}
	eng.SetTracer(col)
	r := ig.Replayer()
	r.BeginInvocation()
	r.Drain()

	if !r.Done() {
		t.Error("Drain left the replay active")
	}
	if r.Restored <= 100 {
		t.Errorf("Drain stopped at the throttle: restored only %d records", r.Restored)
	}
	if got := eng.BTB().RestoredUntouched(); got <= 100 {
		t.Errorf("expected untouched restores far past the threshold, got %d", got)
	}
	if col.Count("replay_end") != 1 {
		t.Errorf("ReplayEnd emitted %d times, want 1", col.Count("replay_end"))
	}
	// The whole recorded stream was consumed and charged to the bus.
	if r.BytesRead() == 0 || r.BytesRead() > r.RegionUsed() {
		t.Errorf("replay read %d bytes of %d recorded", r.BytesRead(), r.RegionUsed())
	}
}

func TestBeginInvocationWithoutRegion(t *testing.T) {
	// Regression: an armed replayer with no recorded region (nothing was
	// ever recorded) must stay inactive instead of dereferencing nil.
	eng, _ := testEngine(t)
	r := NewReplayer(DefaultReplayConfig(), DefaultCodecConfig(), eng, nil, nil)
	r.Arm()
	r.BeginInvocation() // must not panic
	if !r.Done() {
		t.Error("replayer activated with no metadata region")
	}
	r.Tick(0, 100) // must be a no-op
	if r.Restored != 0 || r.RegionUsed() != 0 {
		t.Errorf("inactive replayer restored %d records", r.Restored)
	}

	// An empty (but present) region: replay starts and finishes on the
	// first decode without restoring anything.
	r.SetRegion(memsys.NewRegion(0x1000, MaxMetadataBytes))
	r.Arm()
	r.BeginInvocation()
	r.Tick(0, 100)
	if !r.Done() {
		t.Error("empty-region replay never finished")
	}
	if r.Restored != 0 {
		t.Errorf("empty-region replay restored %d records", r.Restored)
	}
}

func TestTickCreditRetentionAcrossStalls(t *testing.T) {
	// Regression: stalled cycles must not accrue decode credit (that would
	// bank an unbounded burst for when the throttle lifts), but credit
	// earned before the stall is retained, not forfeited.
	eng, ig := recordedIgnite(t, 50)
	r := ig.Replayer()
	r.BeginInvocation()

	// Grant a large burst at once: replay restores to ~threshold and then
	// throttles mid-burst with leftover credit in the bank.
	r.Tick(0, 500)
	if r.Done() {
		t.Fatal("stream too small to throttle")
	}
	if eng.BTB().RestoredUntouched() <= 50 {
		t.Fatalf("throttle did not engage: %d untouched", eng.BTB().RestoredUntouched())
	}
	credit := r.Credit()
	if credit < 1 {
		t.Fatalf("expected leftover credit after a mid-burst stall, got %g", credit)
	}
	restored := r.Restored
	stalls := r.ThrottleStalls

	// While stalled, further cycles confer no credit and restore nothing.
	for i := 0; i < 100; i++ {
		r.Tick(uint64(500+i), 10)
	}
	if got := r.Credit(); got != credit {
		t.Errorf("credit changed during stall: %g -> %g", credit, got)
	}
	if r.Restored != restored {
		t.Errorf("restored %d records while throttled", r.Restored-restored)
	}
	if r.ThrottleStalls <= stalls {
		t.Error("stalled ticks not counted")
	}
}

func TestReplayBIMPolicies(t *testing.T) {
	for _, policy := range []BIMPolicy{BIMNone, BIMWeaklyTaken, BIMWeaklyNotTaken} {
		eng, spec := testEngine(t)
		store := memsys.NewStore()
		cfg := DefaultConfig()
		cfg.Replay.Policy = policy
		ig := New(cfg, eng, store, "test")
		ig.Install()

		eng.Thrash(1)
		ig.StartRecord()
		eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: spec.MaxInstr() / 4})
		ig.StopRecord()
		ig.ArmReplay()
		eng.CBP().Bimodal().Flush() // all weakly-not-taken
		ig.Replayer().BeginInvocation()
		ig.Replayer().Drain()

		switch policy {
		case BIMNone:
			if ig.Replayer().BIMSet != 0 {
				t.Errorf("%v: BIM touched", policy)
			}
		default:
			if ig.Replayer().BIMSet == 0 {
				t.Errorf("%v: BIM not initialized", policy)
			}
		}
	}
}

func TestOSControlRegisters(t *testing.T) {
	eng, _ := testEngine(t)
	store := memsys.NewStore()
	ig := New(DefaultConfig(), eng, store, "regs")

	regs := ig.Regs()
	if regs.RecordEnable || regs.ReplayEnable {
		t.Fatal("enable bits set before configuration")
	}
	ig.StartRecord()
	regs = ig.Regs()
	if !regs.RecordEnable || regs.RecordBase == 0 || regs.RecordSize == 0 {
		t.Errorf("record regs not configured: %+v", regs)
	}
	ig.StopRecord()
	if ig.Regs().RecordEnable {
		t.Error("record enable still set")
	}
	ig.ArmReplay()
	regs = ig.Regs()
	if !regs.ReplayEnable || regs.ReplayBase == 0 {
		t.Errorf("replay regs not configured: %+v", regs)
	}
	ig.DisarmReplay()
	if ig.Regs().ReplayEnable {
		t.Error("replay enable still set")
	}
}

func TestDoubleBufferSwapsRegions(t *testing.T) {
	eng, spec := testEngine(t)
	store := memsys.NewStore()
	cfg := DefaultConfig()
	cfg.DoubleBuffer = true
	ig := New(cfg, eng, store, "db")
	ig.Install()

	// First record goes to region A.
	ig.StartRecord()
	eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: spec.MaxInstr() / 8})
	ig.StopRecord()
	baseA := ig.Regs().RecordBase
	ig.ArmReplay()
	if ig.Regs().ReplayBase != baseA {
		t.Fatal("replay should use the recorded region")
	}
	// Recording while replay is armed must use the other region.
	ig.StartRecord()
	if ig.Regs().RecordBase == baseA {
		t.Error("double-buffered record reused the replaying region")
	}
}

func TestInducedMispredictionTracking(t *testing.T) {
	// A restored weakly-taken counter that is wrong on first use counts
	// as an induced misprediction via Bimodal.WasRestored.
	bim := bpred.NewBimodal(64)
	pc := uint64(0x400)
	bim.Set(pc, bpred.WeaklyTaken)
	if !bim.WasRestored(pc) {
		t.Fatal("restored mark missing")
	}
	bim.Update(pc, false)
	if bim.WasRestored(pc) {
		t.Fatal("restored mark survived training")
	}
}

func TestBranchKindHelpers(t *testing.T) {
	e := toBTBEntry(Record{BranchPC: 1, Target: 2, Kind: cfg.BranchCall})
	if e.PC != 1 || e.Target != 2 || e.Kind != cfg.BranchCall {
		t.Error("toBTBEntry broken")
	}
	if branchCond() != cfg.BranchCond {
		t.Error("branchCond broken")
	}
	var _ = btb.Entry{}
}

func TestBIMPolicyString(t *testing.T) {
	if BIMWeaklyTaken.String() != "weakly-taken" || BIMNone.String() != "none" ||
		BIMWeaklyNotTaken.String() != "weakly-not-taken" {
		t.Error("BIMPolicy.String broken")
	}
}
