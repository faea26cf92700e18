package experiments

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"ignite/internal/faults"
	"ignite/internal/lukewarm"
	"ignite/internal/sim"
	"ignite/internal/store"
)

// storeOpts is chaosOpts plus a persistent store bound behind a fresh
// cache; it returns the stats so tests can assert hit/miss/corruption
// accounting.
func storeOpts(t *testing.T, st *store.Store) (Options, *StoreStats) {
	t.Helper()
	opt := chaosOpts(t)
	opt.Cache = NewCellCache()
	stats := &StoreStats{}
	BindStore(opt.Cache, st, stats)
	return opt, stats
}

// flipBit flips one low bit inside the file's occurrence of needle —
// string content, so the JSON stays well-formed and detection must come
// from checksums, not parse errors.
func flipBit(t *testing.T, path, needle string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(data), needle)
	if i < 0 {
		t.Fatalf("needle %q not found in %s", needle, path)
	}
	data[i+len(needle)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreWarmRerunByteIdentical proves the store round trip at the
// document level: a second run over a sealed store computes nothing and
// still produces a byte-identical document, cache statistics included.
func TestStoreWarmRerunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt1, stats1 := storeOpts(t, st)
	res1, err := Run(context.Background(), "fig1", opt1)
	if err != nil {
		t.Fatal(err)
	}
	doc1 := docBytes(t, res1, opt1)
	if saves := stats1.Saves.Value(); saves != 4 {
		t.Fatalf("cold run persisted %d records, want 4", saves)
	}
	if _, n, err := st.Seal(); err != nil || n != 4 {
		t.Fatalf("seal: n=%d err=%v", n, err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt2, stats2 := storeOpts(t, st2)
	res2, err := Run(context.Background(), "fig1", opt2)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := stats2.Hits.Value(), stats2.Misses.Value(); hits != 4 || misses != 0 {
		t.Errorf("warm run: %d hits / %d misses, want 4 / 0", hits, misses)
	}
	if !bytes.Equal(doc1, docBytes(t, res2, opt2)) {
		t.Error("warm-store document differs from the cold run")
	}
}

// TestStoreResumesInterruptedRun pins resume through the store. A fig1 run
// that dies with one cell unfinished leaves an unsealed store; rerunning
// over it serves the three finished cells from their self-CRC'd records,
// recomputes the fourth, and lands on a document byte-identical to a clean
// run without a store. A run under a different config (every instruction
// budget doubled) over the same store gets no hits: it recomputes instead
// of being served another config's cells.
func TestStoreResumesInterruptedRun(t *testing.T) {
	clean := chaosOpts(t)
	clean.Cache = NewCellCache()
	resClean, err := Run(context.Background(), "fig1", clean)
	if err != nil {
		t.Fatal(err)
	}
	docClean := docBytes(t, resClean, clean)

	// The run that died: one cell panics and the store is never sealed.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	died, _ := storeOpts(t, st)
	if died.Faults, err = faults.Parse("panic@fig1/Fib-G/b2b"); err != nil {
		t.Fatal(err)
	}
	died.FailurePolicy = ContinueOnError
	if _, err := Run(context.Background(), "fig1", died); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, stats := storeOpts(t, st2)
	res, err := Run(context.Background(), "fig1", resumed)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := stats.Hits.Value(), stats.Misses.Value(); hits != 3 || misses != 1 {
		t.Errorf("resumed run: %d hits / %d misses, want 3 / 1 (only the unfinished cell recomputes)", hits, misses)
	}
	if !bytes.Equal(docClean, docBytes(t, res, resumed)) {
		t.Error("resumed document differs from a clean run")
	}

	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scaled, stats := storeOpts(t, st3)
	for i := range scaled.Workloads {
		scaled.Workloads[i].TargetInstr *= 2
	}
	if _, err := Run(context.Background(), "fig1", scaled); err != nil {
		t.Fatal(err)
	}
	if hits, misses := stats.Hits.Value(), stats.Misses.Value(); hits != 0 || misses != 4 {
		t.Errorf("foreign-config run: %d hits / %d misses, want 0 / 4", hits, misses)
	}
}

// TestStoreRecordCorruptionRecomputed flips one bit in one stored cell
// record: the next sweep must detect it, recompute exactly that cell
// (serving the other three warm), repair the record, and land on a
// byte-identical document.
func TestStoreRecordCorruptionRecomputed(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt1, _ := storeOpts(t, st)
	res1, err := Run(context.Background(), "fig1", opt1)
	if err != nil {
		t.Fatal(err)
	}
	doc1 := docBytes(t, res1, opt1)
	if _, _, err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	victim := CellSpec{
		Workload: opt1.Workloads[0],
		Config:   sim.KindNL,
		Mode:     lukewarm.BackToBack,
	}
	flipBit(t, st.RecordPath(victim.Key()), "component")

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt2, stats2 := storeOpts(t, st2)
	res2, err := Run(context.Background(), "fig1", opt2)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt := stats2.Corrupt.Value(); corrupt != 1 {
		t.Errorf("corruption detections = %d, want 1", corrupt)
	}
	if hits, misses := stats2.Hits.Value(), stats2.Misses.Value(); hits != 3 || misses != 1 {
		t.Errorf("damaged-store run: %d hits / %d misses, want 3 / 1 (only the flipped cell recomputes)", hits, misses)
	}
	if !bytes.Equal(doc1, docBytes(t, res2, opt2)) {
		t.Error("document after record corruption differs from the clean run")
	}
	// The recompute's save repaired the record in place.
	if _, err := st2.Get(victim.Key()); err != nil {
		t.Errorf("record not repaired after recompute: %v", err)
	}
}

// TestStoreManifestCorruptionRecomputed flips one bit in the Merkle
// manifest: with the sealed set's integrity unknown, the sweep must trust
// nothing — every cell recomputes — and still produce a byte-identical
// document; resealing restores warm service.
func TestStoreManifestCorruptionRecomputed(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt1, _ := storeOpts(t, st)
	res1, err := Run(context.Background(), "fig1", opt1)
	if err != nil {
		t.Fatal(err)
	}
	doc1 := docBytes(t, res1, opt1)
	if _, _, err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	anyKey := CellSpec{
		Workload: opt1.Workloads[0],
		Config:   sim.KindNL,
		Mode:     lukewarm.BackToBack,
	}.Key()
	flipBit(t, st.ManifestPath(), store.KeyHash(anyKey))

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ManifestErr() == nil {
		t.Fatal("corrupt manifest not detected at open")
	}
	opt2, stats2 := storeOpts(t, st2)
	res2, err := Run(context.Background(), "fig1", opt2)
	if err != nil {
		t.Fatal(err)
	}
	if hits := stats2.Hits.Value(); hits != 0 {
		t.Errorf("%d records served under a corrupt manifest, want 0", hits)
	}
	if corrupt := stats2.Corrupt.Value(); corrupt == 0 {
		t.Error("manifest corruption never surfaced in the stats")
	}
	if !bytes.Equal(doc1, docBytes(t, res2, opt2)) {
		t.Error("document after manifest corruption differs from the clean run")
	}

	// Reseal over the (repaired, byte-identical) records, then a warm run.
	if _, n, err := st2.Seal(); err != nil || n != 4 {
		t.Fatalf("reseal: n=%d err=%v", n, err)
	}
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt3, stats3 := storeOpts(t, st3)
	if _, err := Run(context.Background(), "fig1", opt3); err != nil {
		t.Fatal(err)
	}
	if hits := stats3.Hits.Value(); hits != 4 {
		t.Errorf("post-reseal run served %d warm records, want 4", hits)
	}
}

// TestAblationsResumeFromStore pins the ablations' store path. A cold
// RunAll of fig8 and the three sensitivity ablations over a fresh store
// serves the two nl baselines abl-throttle and abl-metadata share with
// fig8 from fig8's records. A rerun on a new cache over the sealed store
// computes and saves nothing and exports byte-identical documents. Both
// leave the shared cache's Stats as fig8 alone leaves them.
func TestAblationsResumeFromStore(t *testing.T) {
	ids := []ID{"fig8", "abl-throttle", "abl-btb", "abl-metadata"}
	dir := t.TempDir()
	run := func(ids []ID, st *store.Store) (docs [][]byte, stats *StoreStats, cells, hits int) {
		opt := ablationOpts(t, 32)
		opt.Cache = NewCellCache()
		stats = &StoreStats{}
		if st != nil {
			BindStore(opt.Cache, st, stats)
		}
		results, err := RunAll(context.Background(), ids, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			docs = append(docs, docBytes(t, r, opt))
		}
		cells, hits = opt.Cache.Stats()
		return docs, stats, cells, hits
	}
	open := func() *store.Store {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	_, _, fig8Cells, fig8Hits := run(ids[:1], nil)

	st := open()
	coldDocs, cold, coldCells, coldHits := run(ids, st)
	if _, _, err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	warmDocs, warm, warmCells, warmHits := run(ids, open())

	if want := uint64(2 * len(ablationOpts(t, 32).Workloads)); cold.Hits.Value() != want {
		t.Errorf("cold run: %d store hits, want %d (the nl baselines from fig8's records)", cold.Hits.Value(), want)
	}
	if warm.Misses.Value() != 0 || warm.Saves.Value() != 0 {
		t.Errorf("warm run: %d misses / %d saves, want 0 / 0", warm.Misses.Value(), warm.Saves.Value())
	}
	for i, id := range ids {
		if !bytes.Equal(coldDocs[i], warmDocs[i]) {
			t.Errorf("%s: warm-store document differs from the cold run", id)
		}
	}
	if coldCells != fig8Cells || coldHits != fig8Hits || warmCells != fig8Cells || warmHits != fig8Hits {
		t.Errorf("shared cache Stats: fig8 alone %d cells/%d hits, cold %d/%d, warm %d/%d",
			fig8Cells, fig8Hits, coldCells, coldHits, warmCells, warmHits)
	}
}
