package experiments

import (
	"context"
	"fmt"
	"time"

	"ignite/internal/fleet/budget"
	"ignite/internal/fleet/population"
	"ignite/internal/loadgen"
	"ignite/internal/stats"
)

func init() {
	registry = append(registry,
		regEntry{"fleet-pop", "Fleet: sampled population characterization", fleetPop},
		regEntry{"fleet-frontier", "Fleet: CPI speedup vs metadata budget per policy", fleetFrontier},
	)
}

// FleetParams configures the fleet experiments: the sampled population and
// the budget-market sweep. The registered experiments run DefaultFleetParams;
// cmd/ignite-fleet passes its flag-built params into FleetPopulation and
// FleetFrontier directly.
type FleetParams struct {
	// Seed drives both the population sampler and the arrival schedules.
	Seed uint64
	// N is the population size.
	N int
	// RateScale scales every sampled arrival rate (1 = as sampled).
	RateScale float64
	// Duration is the simulated market window.
	Duration time.Duration
	// Process is the arrival process (poisson, diurnal, bursty).
	Process loadgen.Process
	// Policies are the admission/eviction policies to sweep; the all-cold
	// "none" baseline is always computed for the speedup denominators.
	Policies []string
	// Budgets is the per-node metadata budget ladder, in bytes.
	Budgets []uint64
}

// DefaultFleetParams is the sweep the registered fleet experiments run: a
// thousand-function node under every real policy across a 2-64 MiB ladder.
func DefaultFleetParams() FleetParams {
	return FleetParams{
		Seed:      1,
		N:         1000,
		RateScale: 1,
		Duration:  30 * time.Second,
		Process:   loadgen.Poisson,
		Policies:  []string{"lru", "benefit", "topk", "oracle"},
		Budgets:   []uint64{2 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20},
	}
}

func (p FleetParams) withDefaults() FleetParams {
	d := DefaultFleetParams()
	if p.N <= 0 {
		p.N = d.N
	}
	if p.RateScale <= 0 {
		p.RateScale = d.RateScale
	}
	if p.Duration <= 0 {
		p.Duration = d.Duration
	}
	if p.Process == "" {
		p.Process = d.Process
	}
	if len(p.Policies) == 0 {
		p.Policies = d.Policies
	}
	if len(p.Budgets) == 0 {
		p.Budgets = d.Budgets
	}
	return p
}

// fleetTenants samples the population and prices it with the analytic cost
// model — the shared front half of both fleet experiments.
func fleetTenants(p FleetParams) ([]budget.Tenant, error) {
	fns, err := population.Sample(population.Params{
		Seed: p.Seed, N: p.N, RateScale: p.RateScale,
	})
	if err != nil {
		return nil, err
	}
	return budget.Tenants(fns, budget.Analytic{})
}

func fleetPop(ctx context.Context, opt Options) (*Result, error) {
	return FleetPopulation(ctx, opt, DefaultFleetParams())
}

func fleetFrontier(ctx context.Context, opt Options) (*Result, error) {
	return FleetFrontier(ctx, opt, DefaultFleetParams())
}

// FleetPopulation characterizes a sampled population by flavor: working-set
// and rate marginals plus analytically priced cold/warm CPIs and metadata
// footprints. No simulation cells — the whole experiment is closed-form.
func FleetPopulation(ctx context.Context, opt Options, p FleetParams) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tenants, err := fleetTenants(p)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "fleet-pop", Title: Title("fleet-pop")}
	t := stats.NewTable(r.Title,
		"flavor", "count", "share", "code KiB", "branch sites", "rate/s",
		"meta KiB", "cold CPI", "warm CPI")

	flavors := []population.Flavor{
		population.Standard, population.Tiny, population.Huge, population.Chain,
	}
	type agg struct {
		n                                       int
		code, sites, rate, meta, cold, warm, in float64
	}
	byFlavor := map[population.Flavor]*agg{}
	all := &agg{}
	for _, fl := range flavors {
		byFlavor[fl] = &agg{}
	}
	accumulate := func(a *agg, tn budget.Tenant) {
		a.n++
		a.code += float64(tn.F.CodeKiB)
		a.sites += float64(tn.F.BranchSites)
		a.rate += tn.F.RatePerSec
		a.meta += float64(tn.C.MetaBytes) / 1024
		a.cold += tn.C.ColdCPI
		a.warm += tn.C.WarmCPI
	}
	for _, tn := range tenants {
		accumulate(byFlavor[tn.F.Flavor], tn)
		accumulate(all, tn)
	}

	addRow := func(label string, a *agg) {
		if a.n == 0 {
			return
		}
		n := float64(a.n)
		t.AddRowf(label, a.n, n/float64(len(tenants)),
			a.code/n, a.sites/n, a.rate/n, a.meta/n, a.cold/n, a.warm/n)
		r.set(label, "count", n)
		r.set(label, "share", n/float64(len(tenants)))
		r.set(label, "codeKiB", a.code/n)
		r.set(label, "branchSites", a.sites/n)
		r.set(label, "ratePerSec", a.rate/n)
		r.set(label, "metaKiB", a.meta/n)
		r.set(label, "coldCPI", a.cold/n)
		r.set(label, "warmCPI", a.warm/n)
	}
	for _, fl := range flavors {
		addRow(fl.String(), byFlavor[fl])
	}
	addRow("All", all)
	r.Table = t
	return r, nil
}

// FleetFrontier runs the metadata-budget market over a sampled population:
// for every (policy, budget) point it reports residency behavior and the
// aggregate mean/p50/p99 CPI speedups over running the whole node cold.
// This is the fleet analogue of the paper's Figure 8 — performance per byte
// of front-end metadata instead of per function.
func FleetFrontier(ctx context.Context, opt Options, p FleetParams) (*Result, error) {
	p = p.withDefaults()
	tenants, err := fleetTenants(p)
	if err != nil {
		return nil, err
	}
	points, err := budget.Frontier(ctx, tenants, p.Policies, p.Budgets, budget.Params{
		Seed:     p.Seed,
		Duration: p.Duration,
		Process:  p.Process,
	}, opt.withDefaults().Parallel)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "fleet-frontier", Title: Title("fleet-frontier")}
	t := stats.NewTable(r.Title,
		"policy", "budget MiB", "hit ratio", "evictions", "resident MiB",
		"mean CPI", "mean speedup", "p50 speedup", "p99 speedup")
	for _, pt := range points {
		mib := float64(pt.BudgetBytes) / (1 << 20)
		t.AddRowf(pt.Policy, mib, pt.HitRatio, pt.Evictions,
			pt.MeanResidentBytes/(1<<20), pt.MeanCPI,
			pt.MeanSpeedup, pt.P50Speedup, pt.P99Speedup)
		row := fmt.Sprintf("%s/%gMiB", pt.Policy, mib)
		r.set(row, "budgetBytes", float64(pt.BudgetBytes))
		r.set(row, "hitRatio", pt.HitRatio)
		r.set(row, "evictions", float64(pt.Evictions))
		r.set(row, "residentBytes", pt.MeanResidentBytes)
		r.set(row, "meanCPI", pt.MeanCPI)
		r.set(row, "meanSpeedup", pt.MeanSpeedup)
		r.set(row, "p50Speedup", pt.P50Speedup)
		r.set(row, "p99Speedup", pt.P99Speedup)
	}
	r.Table = t
	return r, nil
}
