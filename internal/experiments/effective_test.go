package experiments

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"ignite/internal/ignite"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/store"
	"ignite/internal/workload"
)

// TestEquivalentSpellingsSimulateIdentically pins every fold the sweeps
// rely on: each pair names one simulation in two ways, so the two cells
// have different named keys and one effective key, and each simulated on
// its own, in a fresh cache, yields a byte-identical payload.
func TestEquivalentSpellingsSimulateIdentically(t *testing.T) {
	wl, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	wl.TargetInstr /= 8
	wt, none := ignite.BIMWeaklyTaken, ignite.BIMNone
	cell := func(kind sim.Kind, tw sim.Tweaks) CellSpec {
		return CellSpec{Workload: wl, Config: kind, Tweaks: tw, Mode: lukewarm.Interleaved}
	}
	pairs := []struct {
		name string
		a, b CellSpec
	}{
		{"kind synonym", cell(sim.KindFDPIgnite, sim.Tweaks{}), cell(sim.KindIgnite, sim.Tweaks{})},
		{"Table-2 BTB", cell(sim.KindBoomerangJB, sim.Tweaks{BTBEntries: 12288}), cell(sim.KindBoomerangJB, sim.Tweaks{})},
		{"Table-2 L2", cell(sim.KindIgnite, sim.Tweaks{L2KiB: 1280}), cell(sim.KindIgnite, sim.Tweaks{})},
		{"Table-2 throttle", cell(sim.KindIgnite, sim.Tweaks{ThrottleThreshold: 1024}), cell(sim.KindIgnite, sim.Tweaks{})},
		{"Table-2 metadata", cell(sim.KindIgnite, sim.Tweaks{MetadataBytes: 120 << 10}), cell(sim.KindIgnite, sim.Tweaks{})},
		{"default BIM policy", cell(sim.KindIgnite, sim.Tweaks{BIMPolicy: &wt}), cell(sim.KindIgnite, sim.Tweaks{})},
		{"Ignite tweaks without Ignite", cell(sim.KindNL, sim.Tweaks{BIMPolicy: &none, DoubleBuffer: true,
			ThrottleThreshold: 64, MetadataBytes: 8 << 10}), cell(sim.KindNL, sim.Tweaks{})},
	}
	payload := func(cs CellSpec) []byte {
		p, _, err := NewCellCache().Invoke(cs.Key(), cs, CellEnv{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, pr := range pairs {
		if pr.a.Key() == pr.b.Key() {
			t.Errorf("%s: one named key for both spellings", pr.name)
		}
		_, ka, errA := effectiveKey(pr.a)
		_, kb, errB := effectiveKey(pr.b)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", pr.name, errA, errB)
		}
		if ka != kb {
			t.Errorf("%s: the spellings resolve to different effective keys", pr.name)
			continue
		}
		if a, b := payload(pr.a), payload(pr.b); string(a) != string(b) {
			t.Errorf("%s: payloads differ (%d and %d bytes)", pr.name, len(a), len(b))
		}
	}
}

// freshEngines counts simulations: every simulated cell builds a fresh
// engine, whose first invocation starts at cycle 0.
type freshEngines struct {
	obs.BaseTracer
	n atomic.Int64
}

func (f *freshEngines) InvocationStart(e obs.InvocationStartEvent) {
	if e.Now == 0 {
		f.n.Add(1)
	}
}

// TestRunAllSimulatesEachEffectiveCellOnce runs every experiment over two
// workloads without a store, once computing cells locally and once through
// a remote delegate. Per workload the figures name 19 cells and the
// sensitivity ablations 21 more (each on its own fork, nl included), 40 in
// all, but they simulate only 31: fig11's bim-wt and fig12's fdp+ignite are
// fig8's ignite, and seven ablation cells join the figures' flights: the
// nl baselines of abl-throttle and abl-metadata, abl-btb's three cells at
// the Table-2 size of 12288 entries, throttle 1024 and 120 KiB of metadata.
// The
// shared cache's Stats stay what they were when each named cell simulated.
// Locally the tracer also sees abl-codec's one engine, which is no cell and
// never ships.
func TestRunAllSimulatesEachEffectiveCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	opts := func() Options {
		opt := quickOpts(t)
		for i := range opt.Workloads {
			opt.Workloads[i].TargetInstr /= 16
		}
		opt.Cache = NewCellCache()
		return opt
	}
	const simulations, cells, hits = 62, 38, 50
	check := func(path string, opt Options, count func() int64, want int64) {
		t.Helper()
		if _, err := RunAll(context.Background(), nil, opt); err != nil {
			t.Fatal(err)
		}
		if n := count(); n != want {
			t.Errorf("%s: %d simulations, want %d", path, n, want)
		}
		if c, h := opt.Cache.Stats(); c != cells || h != hits {
			t.Errorf("%s: Stats %d cells/%d hits, want %d/%d", path, c, h, cells, hits)
		}
	}

	local := opts()
	tr := &freshEngines{}
	local.Tracer = tr
	check("local", local, tr.n.Load, simulations+1)

	remote := opts()
	var shipped atomic.Int64
	remote.Cache.SetRemote(func(_ context.Context, key string, cs CellSpec, env CellEnv) (CellPayload, error) {
		shipped.Add(1)
		p, _, err := NewCellCache().Invoke(key, cs, env)
		if err != nil {
			return CellPayload{}, err
		}
		return *p, nil
	})
	check("remote", remote, shipped.Load, simulations)
}

// TestStoreHitFinishesTwinsFlight resumes from a store that holds only
// ignite's record: loading it finishes the flight of its effective key, so
// fdp+ignite, which the store lacks, joins that flight instead of
// simulating, and is saved under its own name.
func TestStoreHitFinishesTwinsFlight(t *testing.T) {
	wl, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	wl.TargetInstr /= 8
	ig := CellSpec{Workload: wl, Config: sim.KindIgnite, Mode: lukewarm.Interleaved}
	twin := CellSpec{Workload: wl, Config: sim.KindFDPIgnite, Mode: lukewarm.Interleaved}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seed := NewCellCache()
	BindStore(seed, st, nil)
	if _, _, err := seed.cell(context.Background(), ig.Key(), ig, CellEnv{}); err != nil {
		t.Fatal(err)
	}

	cc := NewCellCache()
	stats := &StoreStats{}
	BindStore(cc, st, stats)
	var shipped atomic.Int64
	cc.SetRemote(func(_ context.Context, key string, cs CellSpec, env CellEnv) (CellPayload, error) {
		shipped.Add(1)
		p, _, err := NewCellCache().Invoke(key, cs, env)
		if err != nil {
			return CellPayload{}, err
		}
		return *p, nil
	})
	for _, cs := range []CellSpec{ig, twin} {
		if _, _, err := cc.cell(context.Background(), cs.Key(), cs, CellEnv{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := shipped.Load(); n != 0 {
		t.Errorf("%d cell(s) simulated, want 0: fdp+ignite should join the flight ignite's record finished", n)
	}
	if hits, saves := stats.Hits.Value(), stats.Saves.Value(); hits != 1 || saves != 1 {
		t.Errorf("store: %d hit(s), %d save(s), want 1 and 1", hits, saves)
	}
}
