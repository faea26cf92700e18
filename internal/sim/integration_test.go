package sim

import (
	"testing"

	"ignite/internal/cache"
	"ignite/internal/lukewarm"
)

// TestIgniteEndToEndEffects drills into what the replay actually restored
// during a full protocol run: BTB entries, BIM counters, L2 lines, ITLB
// pages and metadata traffic, all through the public wiring.
func TestIgniteEndToEndEffects(t *testing.T) {
	s := spec(t)
	setup, err := New(s, KindIgnite)
	if err != nil {
		t.Fatal(err)
	}
	res, err := setup.Run(lukewarm.Interleaved)
	if err != nil {
		t.Fatal(err)
	}

	ig := setup.Ignite
	if ig.Recorder().Records() == 0 {
		t.Fatal("nothing recorded")
	}
	if ig.MetadataUsed() == 0 || ig.MetadataUsed() > 120<<10 {
		t.Fatalf("metadata size %d outside (0, 120 KiB]", ig.MetadataUsed())
	}
	if !ig.Regs().ReplayEnable {
		t.Error("replay not armed after protocol")
	}

	// Restored-state accuracy: most restored BTB entries were used.
	bs := setup.Eng.BTB().Stats()
	if bs.RestoredInserts.Value() == 0 {
		t.Fatal("no restored BTB inserts")
	}
	usedFrac := float64(bs.RestoredUsed.Value()) / float64(bs.RestoredInserts.Value())
	if usedFrac < 0.5 {
		t.Errorf("only %.0f%% of restored BTB entries used", usedFrac*100)
	}

	// Ignite's L2 prefetches were mostly useful.
	ins, useful := setup.Eng.Traffic().SourceAccuracy(cache.SrcIgnite)
	if ins == 0 {
		t.Fatal("no Ignite prefetches tracked")
	}
	if float64(useful)/float64(ins) < 0.5 {
		t.Errorf("only %d/%d Ignite prefetches useful", useful, ins)
	}

	// Replay metadata traffic appears in the bandwidth report.
	if res.MeanTraffic().ReplayMetaBytes == 0 {
		t.Error("no replay metadata traffic")
	}
}

// TestIgniteReducesAllThreeMissClasses is the paper's core claim stated as
// one assertion: versus the NL baseline on lukewarm invocations, Ignite
// reduces L1-I, BTB and CBP MPKI simultaneously.
func TestIgniteReducesAllThreeMissClasses(t *testing.T) {
	s := spec(t)
	prog, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewWithProgram(s, prog, KindNL)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := base.Run(lukewarm.Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	igSetup, err := NewWithProgram(s, prog, KindIgnite)
	if err != nil {
		t.Fatal(err)
	}
	ig, err := igSetup.Run(lukewarm.Interleaved)
	if err != nil {
		t.Fatal(err)
	}

	if ig.L1IMPKI() >= nl.L1IMPKI() {
		t.Errorf("L1I MPKI: ignite %.2f >= nl %.2f", ig.L1IMPKI(), nl.L1IMPKI())
	}
	if ig.BTBMPKI() >= nl.BTBMPKI()/2 {
		t.Errorf("BTB MPKI: ignite %.2f not well below nl %.2f", ig.BTBMPKI(), nl.BTBMPKI())
	}
	if ig.CBPMPKI() >= nl.CBPMPKI() {
		t.Errorf("CBP MPKI: ignite %.2f >= nl %.2f", ig.CBPMPKI(), nl.CBPMPKI())
	}
	if ig.OffChipMPKI() >= nl.OffChipMPKI()/2 {
		t.Errorf("off-chip MPKI: ignite %.2f not well below nl %.2f", ig.OffChipMPKI(), nl.OffChipMPKI())
	}
	// Initial mispredictions are the specific target of BIM restoration.
	if ig.InitialCBPMPKI() >= nl.InitialCBPMPKI() {
		t.Errorf("initial mispredictions: ignite %.2f >= nl %.2f",
			ig.InitialCBPMPKI(), nl.InitialCBPMPKI())
	}
}

// TestBackToBackBeatsEverything: no prefetcher on lukewarm invocations
// should beat actually keeping the state warm.
func TestBackToBackBeatsEverything(t *testing.T) {
	s := spec(t)
	prog, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b2bSetup, err := NewWithProgram(s, prog, KindNL)
	if err != nil {
		t.Fatal(err)
	}
	b2b, err := b2bSetup.Run(lukewarm.BackToBack)
	if err != nil {
		t.Fatal(err)
	}
	igSetup, err := NewWithProgram(s, prog, KindIgnite)
	if err != nil {
		t.Fatal(err)
	}
	ig, err := igSetup.Run(lukewarm.Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	if ig.CPI() < b2b.CPI()*0.98 {
		t.Errorf("Ignite on lukewarm (%.3f) should not beat back-to-back (%.3f)",
			ig.CPI(), b2b.CPI())
	}
}

// TestThrottleTweakWired verifies the ablation plumbing reaches the replay.
func TestThrottleTweakWired(t *testing.T) {
	s := spec(t)
	setup, err := New(s, KindIgnite, WithTweaks(Tweaks{ThrottleThreshold: 64, MetadataBytes: 16 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	if setup.Ignite.MetadataUsed() != 0 {
		t.Error("fresh setup has metadata")
	}
	if _, err := setup.Run(lukewarm.Interleaved); err != nil {
		t.Fatal(err)
	}
	if setup.Ignite.MetadataUsed() > 16<<10 {
		t.Errorf("metadata %d exceeds 16 KiB budget", setup.Ignite.MetadataUsed())
	}
}

// TestBTBEntriesTweakWired verifies the BTB-capacity override.
func TestBTBEntriesTweakWired(t *testing.T) {
	s := spec(t)
	setup, err := New(s, KindNL, WithTweaks(Tweaks{BTBEntries: 6144}))
	if err != nil {
		t.Fatal(err)
	}
	if got := setup.Eng.BTB().Config().Entries; got != 6144 {
		t.Errorf("BTB entries = %d, want 6144", got)
	}
}
