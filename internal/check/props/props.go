// Package props holds the simulator's metamorphic properties: relations
// between whole simulation runs that must hold for any workload, used both as
// table-driven tests and as fuzz targets (go test ./internal/check/props
// -fuzz FuzzProperties). Where an invariant (internal/check) audits one run
// from the inside, a property compares runs against each other:
//
//   - determinism: identical setups produce bit-identical results;
//   - batch equivalence: the batched invocation entry point
//     (engine.RunInvocations) is bit-identical to the serial train it
//     replaces;
//   - replay idempotence: draining the recorded stream twice leaves the BTB
//     in exactly the state one drain leaves it in, and re-draining after a
//     fresh thrash reproduces it;
//   - monotonicity: growing a structure (BTB entries, L2 capacity) never
//     meaningfully worsens the miss rate it backs;
//   - policy ordering: Ignite's weakly-taken BIM initialization never
//     induces more mispredictions than the adversarial weakly-not-taken
//     policy (the Figure 11 ordering);
//   - mode ordering: back-to-back execution (all state warm) is never
//     meaningfully slower than interleaved (thrashed) execution.
//
// The monotonicity and ordering properties carry small tolerances: set-index
// remapping under a different geometry and wrong-path prefetch side effects
// can shift a metric marginally in the wrong direction without indicating a
// bug; the tolerances bound that noise while still catching real inversions.
package props

import (
	"context"
	"fmt"
	"math"
	"time"

	"ignite/internal/engine"
	"ignite/internal/experiments"
	"ignite/internal/fleet/budget"
	"ignite/internal/fleet/population"
	"ignite/internal/ignite"
	"ignite/internal/lukewarm"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// Property is one metamorphic relation, checked against a single workload.
type Property struct {
	Name string
	Run  func(spec workload.Spec) error
}

// All returns every property, in presentation order.
func All() []Property {
	return []Property{
		{"determinism", Determinism},
		{"batch-equivalence", BatchEquivalence},
		{"replay-idempotence", ReplayIdempotence},
		{"btb-monotonicity", BTBMonotonicity},
		{"l2-monotonicity", L2Monotonicity},
		{"bim-policy-ordering", BIMPolicyOrdering},
		{"mode-ordering", ModeOrdering},
		{"fleet-budget-monotonicity", FleetBudgetMonotonicity},
	}
}

// runKind executes one fresh lukewarm protocol run of spec under kind.
func runKind(spec workload.Spec, kind sim.Kind, mode lukewarm.Mode, opts ...sim.Option) (*sim.Setup, *lukewarm.Result, error) {
	setup, err := sim.New(spec, kind, opts...)
	if err != nil {
		return nil, nil, err
	}
	res, err := setup.Run(mode)
	if err != nil {
		return nil, nil, err
	}
	return setup, res, nil
}

// Fingerprint flattens a protocol result into the float64 bit patterns a
// determinism comparison must reproduce exactly.
func Fingerprint(res *lukewarm.Result) []uint64 {
	st := res.CPIStack()
	vals := []float64{
		res.CPI(), st.Retiring, st.Fetch, st.BadSpec, st.Backend,
		res.L1IMPKI(), res.BTBMPKI(), res.CBPMPKI(), res.InducedMPKI(),
		res.OffChipMPKI(),
		float64(res.Instrs()), float64(res.MeanTraffic().Total()),
	}
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// Determinism: two fresh, identical Ignite setups must produce bit-identical
// results — the engine seeds every source of randomness from the spec.
func Determinism(spec workload.Spec) error {
	_, a, err := runKind(spec, sim.KindIgnite, lukewarm.Interleaved)
	if err != nil {
		return err
	}
	_, b, err := runKind(spec, sim.KindIgnite, lukewarm.Interleaved)
	if err != nil {
		return err
	}
	fa, fb := Fingerprint(a), Fingerprint(b)
	for i := range fa {
		if fa[i] != fb[i] {
			return fmt.Errorf("props: determinism: %s: fingerprint field %d differs (%#x vs %#x)",
				spec.Name, i, fa[i], fb[i])
		}
	}
	return nil
}

// BatchEquivalence: the engine's batched entry point (RunInvocations, the
// path the lukewarm protocol rides) must be bit-identical to the equivalent
// serial RunInvocation train, including the thrashes a protocol interleaves.
// The batched API only amortizes result allocation; any observable difference
// is a bug.
func BatchEquivalence(spec workload.Spec) error {
	const n = 4
	maxInstr := spec.MaxInstr() / 2

	build := func() (*engine.Engine, error) {
		setup, err := sim.New(spec, sim.KindNL)
		if err != nil {
			return nil, err
		}
		return setup.Eng, nil
	}

	serialEng, err := build()
	if err != nil {
		return err
	}
	var serial [n]engine.InvocationStats
	for i := 0; i < n; i++ {
		serialEng.Thrash(uint64(i))
		st, err := serialEng.RunInvocation(engine.InvocationOptions{Seed: uint64(10 + i), MaxInstr: maxInstr})
		if err != nil {
			return err
		}
		serial[i] = *st
	}

	batchEng, err := build()
	if err != nil {
		return err
	}
	opts := make([]engine.InvocationOptions, n)
	batch, err := batchEng.RunInvocations(opts, func(i int) error {
		batchEng.Thrash(uint64(i))
		opts[i] = engine.InvocationOptions{Seed: uint64(10 + i), MaxInstr: maxInstr}
		return nil
	})
	if err != nil {
		return err
	}

	for i := 0; i < n; i++ {
		if serial[i] != *batch[i] {
			return fmt.Errorf("props: batch-equivalence: %s: invocation %d diverges between serial (%+v) and batched (%+v)",
				spec.Name, i, serial[i], *batch[i])
		}
	}
	return nil
}

// ReplayIdempotence: draining the recorded metadata stream is idempotent —
// applying it a second time (with or without an intervening thrash) leaves
// the BTB with exactly the same contents.
func ReplayIdempotence(spec workload.Spec) error {
	setup, err := sim.New(spec, sim.KindIgnite)
	if err != nil {
		return err
	}
	eng, ig := setup.Eng, setup.Ignite

	eng.Thrash(1)
	ig.StartRecord()
	if _, err := eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: spec.MaxInstr() / 2}); err != nil {
		return err
	}
	ig.StopRecord()
	ig.ArmReplay()

	drain := func() {
		ig.Replayer().BeginInvocation()
		ig.Replayer().Drain()
	}

	eng.Thrash(2)
	drain()
	first := eng.BTB().Snapshot()

	// Second drain on top of the first: same records, same state.
	drain()
	if again := eng.BTB().Snapshot(); !first.ContentEqual(again) {
		return fmt.Errorf("props: replay-idempotence: %s: re-draining onto a restored BTB changed its contents", spec.Name)
	}

	// Thrash away everything and drain once more: reproducible from scratch.
	eng.Thrash(3)
	drain()
	if fresh := eng.BTB().Snapshot(); !first.ContentEqual(fresh) {
		return fmt.Errorf("props: replay-idempotence: %s: replay after a fresh thrash diverged from the first replay", spec.Name)
	}
	return nil
}

// BTBMonotonicity: growing the BTB never meaningfully increases BTB MPKI.
// The tolerance absorbs set-remapping noise (a different entry count changes
// which sites conflict) without letting a real inversion through.
func BTBMonotonicity(spec workload.Spec) error {
	mpki := func(entries int) (float64, error) {
		_, res, err := runKind(spec, sim.KindNL, lukewarm.Interleaved, sim.WithTweaks(sim.Tweaks{BTBEntries: entries}))
		if err != nil {
			return 0, err
		}
		return res.BTBMPKI(), nil
	}
	small, err := mpki(1536)
	if err != nil {
		return err
	}
	big, err := mpki(12288)
	if err != nil {
		return err
	}
	if big > small*1.02+0.05 {
		return fmt.Errorf("props: btb-monotonicity: %s: BTB MPKI rose from %.3f to %.3f when the BTB grew 8x",
			spec.Name, small, big)
	}
	return nil
}

// L2Monotonicity: growing the L2 never meaningfully increases the
// instruction L2 miss rate. Compared per kilo-instruction over the engine's
// lifetime (both runs execute the identical protocol).
func L2Monotonicity(spec workload.Spec) error {
	missRate := func(kib int) (float64, error) {
		setup, res, err := runKind(spec, sim.KindNL, lukewarm.Interleaved, sim.WithTweaks(sim.Tweaks{L2KiB: kib}))
		if err != nil {
			return 0, err
		}
		misses := setup.Eng.Hierarchy().Stats().InstrL2Misses.Value()
		return float64(misses) * 1000 / float64(res.Instrs()), nil
	}
	small, err := missRate(320)
	if err != nil {
		return err
	}
	big, err := missRate(2560)
	if err != nil {
		return err
	}
	if big > small*1.02+0.05 {
		return fmt.Errorf("props: l2-monotonicity: %s: instruction L2 misses/kI rose from %.3f to %.3f when the L2 grew 8x",
			spec.Name, small, big)
	}
	return nil
}

// BIMPolicyOrdering: initializing restored branches to weakly-taken (they
// were recorded because they were taken) never induces more mispredictions
// than the adversarial weakly-not-taken initialization.
func BIMPolicyOrdering(spec workload.Spec) error {
	induced := func(p ignite.BIMPolicy) (float64, error) {
		_, res, err := runKind(spec, sim.KindIgnite, lukewarm.Interleaved, sim.WithTweaks(sim.Tweaks{BIMPolicy: &p}))
		if err != nil {
			return 0, err
		}
		return res.InducedMPKI(), nil
	}
	wt, err := induced(ignite.BIMWeaklyTaken)
	if err != nil {
		return err
	}
	wnt, err := induced(ignite.BIMWeaklyNotTaken)
	if err != nil {
		return err
	}
	if wt > wnt+1e-9 {
		return fmt.Errorf("props: bim-policy-ordering: %s: weakly-taken induced %.3f MPKI > weakly-not-taken %.3f",
			spec.Name, wt, wnt)
	}
	return nil
}

// ModeOrdering: with every structure preserved between invocations
// (back-to-back), a configuration is never meaningfully slower than with all
// state thrashed (interleaved) — Figure 1's premise.
func ModeOrdering(spec workload.Spec) error {
	for _, kind := range []sim.Kind{sim.KindNL, sim.KindIgnite} {
		_, b2b, err := runKind(spec, kind, lukewarm.BackToBack)
		if err != nil {
			return err
		}
		_, il, err := runKind(spec, kind, lukewarm.Interleaved)
		if err != nil {
			return err
		}
		if b2b.CPI() > il.CPI()*1.02 {
			return fmt.Errorf("props: mode-ordering: %s/%s: back-to-back CPI %.3f exceeds interleaved %.3f",
				spec.Name, kind, b2b.CPI(), il.CPI())
		}
	}
	return nil
}

// FleetBudgetMonotonicity: in the fleet metadata-budget market, a larger
// per-node budget never worsens the aggregate mean CPI under the static
// top-K plan or the benefit-density policy — more room for metadata can
// only keep more tenants on the lukewarm path. The spec only contributes
// its generator seed (the property ranges over sampled populations, not
// single workloads), so fuzzed specs explore different populations. LRU is
// deliberately excluded: recency eviction admits Belady-style anomalies by
// construction.
func FleetBudgetMonotonicity(spec workload.Spec) error {
	fns, err := population.Sample(population.Params{Seed: spec.Gen.Seed, N: 200})
	if err != nil {
		return err
	}
	tenants, err := budget.Tenants(fns, budget.Analytic{})
	if err != nil {
		return err
	}
	budgets := []uint64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 64 << 20}
	for _, name := range []string{"topk", "benefit"} {
		prev := math.Inf(1)
		for _, b := range budgets {
			pol, err := budget.NewPolicy(name)
			if err != nil {
				return err
			}
			o, err := budget.Run(tenants, budget.Params{
				Seed:        spec.Gen.Seed,
				Duration:    10 * time.Second,
				BudgetBytes: b,
				Policy:      pol,
			})
			if err != nil {
				return err
			}
			if o.MeanCPI > prev+1e-9 {
				return fmt.Errorf("props: fleet-budget-monotonicity: %s/seed %d: mean CPI rose from %.6f to %.6f when the budget grew to %d MiB",
					name, spec.Gen.Seed, prev, o.MeanCPI, b>>20)
			}
			prev = o.MeanCPI
		}
	}
	return nil
}

// ExperimentsDeterminism is the experiment-level determinism property: every
// experiment's Result.Values must be bit-identical across scheduler widths
// (Parallel=1 vs Parallel=8) and across cache-off vs a CellCache shared by
// all the experiments. The cached pass must also actually share cells (at
// least one cache hit), otherwise the property degenerates into the
// uncached one.
func ExperimentsDeterminism(ctx context.Context, ids []experiments.ID, specs []workload.Spec) error {
	run := func(id experiments.ID, opt experiments.Options) (map[string]map[string]float64, error) {
		r, err := experiments.Run(ctx, id, opt)
		if err != nil {
			return nil, fmt.Errorf("props: experiments-determinism: %s: %w", id, err)
		}
		return r.Values, nil
	}

	base := map[experiments.ID]map[string]map[string]float64{}
	for _, id := range ids {
		v, err := run(id, experiments.Options{Workloads: specs, Parallel: 1})
		if err != nil {
			return err
		}
		base[id] = v
	}

	for _, id := range ids {
		v, err := run(id, experiments.Options{Workloads: specs, Parallel: 8})
		if err != nil {
			return err
		}
		if at, ok := valuesEqual(base[id], v); !ok {
			return fmt.Errorf("props: experiments-determinism: %s: parallel=8 diverges from parallel=1 at %s", id, at)
		}
	}

	cc := experiments.NewCellCache()
	results, err := experiments.RunAll(ctx, ids, experiments.Options{Workloads: specs, Parallel: 8, Cache: cc})
	if err != nil {
		return fmt.Errorf("props: experiments-determinism: cached RunAll: %w", err)
	}
	for i, id := range ids {
		if at, ok := valuesEqual(base[id], results[i].Values); !ok {
			return fmt.Errorf("props: experiments-determinism: %s: cached run diverges from uncached at %s", id, at)
		}
	}
	if _, hits := cc.Stats(); hits == 0 {
		return fmt.Errorf("props: experiments-determinism: shared cache saw no hits across %v", ids)
	}
	return nil
}

// valuesEqual reports whether two result Values maps are bit-identical,
// returning the first difference for diagnostics.
func valuesEqual(a, b map[string]map[string]float64) (string, bool) {
	if len(a) != len(b) {
		return "row count differs", false
	}
	for row, cols := range a {
		bc, ok := b[row]
		if !ok || len(cols) != len(bc) {
			return "row " + row, false
		}
		for col, v := range cols {
			w, ok := bc[col]
			if !ok || math.Float64bits(v) != math.Float64bits(w) {
				return row + "/" + col, false
			}
		}
	}
	return "", true
}
