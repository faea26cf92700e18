package budget

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ignite/internal/fleet/population"
	"ignite/internal/loadgen"
)

// Tenant is one function competing for the node's metadata budget: the
// sampled function plus its priced costs.
type Tenant struct {
	F population.Function
	C Costs
}

// Tenants prices a population under a cost model.
func Tenants(fns []population.Function, m CostModel) ([]Tenant, error) {
	out := make([]Tenant, len(fns))
	for i, f := range fns {
		c, err := m.Costs(f)
		if err != nil {
			return nil, err
		}
		out[i] = Tenant{F: f, C: c}
	}
	return out, nil
}

// Params configures one market run.
type Params struct {
	// Seed drives the per-tenant arrival schedules (tenant i's schedule is
	// seeded by a splitmix of Seed and i, so tenants are decorrelated but
	// the whole run is reproducible).
	Seed uint64
	// Duration is the simulated wall-clock window.
	Duration time.Duration
	// Process is the arrival process every tenant follows at its own rate.
	Process loadgen.Process
	// BudgetBytes is the node's shared metadata budget.
	BudgetBytes uint64
	// Policy decides residency. Policies implementing Unbounded() (the
	// oracle) are priced with an unlimited budget.
	Policy Policy
}

// Outcome summarizes one market run.
type Outcome struct {
	Policy      string
	BudgetBytes uint64

	Invocations int
	Warm        int
	Cold        int
	Evictions   int
	// HitRatio is Warm/Invocations.
	HitRatio float64

	// MeanCPI is the instruction-weighted aggregate CPI (Σcycles/Σinstrs).
	MeanCPI float64
	// P50CPI/P99CPI are invocation-weighted CPI percentiles.
	P50CPI float64
	P99CPI float64
	// MeanResidentBytes is the time-weighted mean budget occupancy.
	MeanResidentBytes float64
}

// event is one arrival in the merged schedule. Its times are converted to
// seconds once, when the tape is built, for every replay to read.
type event struct {
	at     time.Duration
	tenant int
	now    float64 // at.Seconds()
	gap    float64 // seconds since the previous arrival (since 0 for the first)
}

// tenantSeed decorrelates per-tenant schedules (splitmix64 increment).
func tenantSeed(seed uint64, i int) uint64 {
	return seed + uint64(i+1)*0x9e3779b97f4a7c15
}

// mergedSchedule builds the run's arrival tape: every tenant's own loadgen
// schedule at its sampled rate, merged and sorted by (time, tenant) so the
// order is total and deterministic. The tape depends on the tenants, seed,
// process and duration only, never on the policy or budget.
func mergedSchedule(tenants []Tenant, p Params) []event {
	schedules := make([][]time.Duration, len(tenants))
	n := 0
	for i, t := range tenants {
		schedules[i] = loadgen.Schedule(p.Process, t.F.RatePerSec, p.Duration, tenantSeed(p.Seed, i))
		n += len(schedules[i])
	}
	events := make([]event, 0, n)
	for i, s := range schedules {
		for _, at := range s {
			events = append(events, event{at: at, tenant: i})
		}
	}
	slices.SortFunc(events, func(a, b event) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.tenant, b.tenant)
	})
	var last time.Duration
	for i := range events {
		ev := &events[i]
		ev.now, ev.gap = ev.at.Seconds(), (ev.at - last).Seconds()
		last = ev.at
	}
	return events
}

func (p Params) withDefaults() Params {
	if p.Process == "" {
		p.Process = loadgen.Poisson
	}
	if p.Duration <= 0 {
		p.Duration = 60 * time.Second
	}
	return p
}

// Run plays the merged arrival schedule through the policy. The market
// keeps its own residency ledger and fails the run if the policy ever
// reports an admission the budget cannot hold or an eviction of a
// non-resident tenant — policies are untrusted.
func Run(tenants []Tenant, p Params) (Outcome, error) {
	p = p.withDefaults()
	return replay(tenants, p, mergedSchedule(tenants, p))
}

// replay plays one arrival tape (mergedSchedule of the same tenants and
// params) through p.Policy.
func replay(tenants []Tenant, p Params, events []event) (Outcome, error) {
	if len(tenants) == 0 {
		return Outcome{}, fmt.Errorf("budget: empty tenant set")
	}
	if p.Policy == nil {
		return Outcome{}, fmt.Errorf("budget: nil policy")
	}
	budget := p.BudgetBytes
	if u, ok := p.Policy.(unbounded); ok && u.Unbounded() {
		budget = math.MaxUint64
	}
	p.Policy.Reset(tenants, budget)
	if len(events) == 0 {
		return Outcome{}, fmt.Errorf("budget: no arrivals in %v (rates too low?)", p.Duration)
	}

	resident := make([]bool, len(tenants))
	warmCount := make([]int, len(tenants))
	coldCount := make([]int, len(tenants))
	var used uint64
	var residentIntegral float64 // byte-seconds

	out := Outcome{Policy: p.Policy.Name(), BudgetBytes: p.BudgetBytes}
	var cycles, instrs float64

	for _, ev := range events {
		residentIntegral += float64(used) * ev.gap
		i := ev.tenant
		t := &tenants[i]

		if resident[i] {
			out.Warm++
			warmCount[i]++
			cycles += t.C.WarmCPI * float64(t.C.Instrs)
			p.Policy.OnHit(i, ev.now)
		} else {
			out.Cold++
			coldCount[i]++
			cycles += t.C.ColdCPI * float64(t.C.Instrs)
			admit, victims := p.Policy.OnMiss(i, ev.now)
			for _, v := range victims {
				if !resident[v] {
					return Outcome{}, fmt.Errorf("budget: policy %s evicted non-resident tenant %s",
						p.Policy.Name(), tenants[v].F.Name)
				}
				resident[v] = false
				used -= tenants[v].C.MetaBytes
				out.Evictions++
			}
			if admit {
				if resident[i] {
					return Outcome{}, fmt.Errorf("budget: policy %s re-admitted resident tenant %s",
						p.Policy.Name(), t.F.Name)
				}
				resident[i] = true
				used += t.C.MetaBytes
				if used > budget {
					return Outcome{}, fmt.Errorf("budget: policy %s overflowed the budget (%d > %d bytes) admitting %s",
						p.Policy.Name(), used, budget, t.F.Name)
				}
			}
		}
		instrs += float64(t.C.Instrs)
	}
	residentIntegral += float64(used) * (p.Duration - events[len(events)-1].at).Seconds()

	out.Invocations = out.Warm + out.Cold
	out.HitRatio = float64(out.Warm) / float64(out.Invocations)
	out.MeanCPI = cycles / instrs
	out.MeanResidentBytes = residentIntegral / p.Duration.Seconds()

	// Each tenant contributes at most two distinct CPI values, so the
	// invocation-weighted percentiles are exact over ≤2N (value,count) pairs.
	pairs := make([]cpiWeight, 0, 2*len(tenants))
	for i, t := range tenants {
		if coldCount[i] > 0 {
			pairs = append(pairs, cpiWeight{t.C.ColdCPI, coldCount[i]})
		}
		if warmCount[i] > 0 {
			pairs = append(pairs, cpiWeight{t.C.WarmCPI, warmCount[i]})
		}
	}
	slices.SortFunc(pairs, func(a, b cpiWeight) int { return cmp.Compare(a.cpi, b.cpi) })
	out.P50CPI = weightedPercentile(pairs, out.Invocations, 0.50)
	out.P99CPI = weightedPercentile(pairs, out.Invocations, 0.99)
	return out, nil
}

type cpiWeight struct {
	cpi float64
	n   int
}

// weightedPercentile returns the smallest CPI value whose cumulative
// invocation count reaches q of total (nearest-rank over weights). pairs
// are sorted by CPI, and their counts sum to total.
func weightedPercentile(pairs []cpiWeight, total int, q float64) float64 {
	if len(pairs) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	cum := 0
	for _, p := range pairs {
		cum += p.n
		if cum >= rank {
			return p.cpi
		}
	}
	return pairs[len(pairs)-1].cpi
}

// FrontierPoint is one (policy, budget) cell of the frontier sweep, with
// speedups relative to the all-cold baseline of the same arrival schedule.
type FrontierPoint struct {
	Outcome
	// MeanSpeedup/P50Speedup/P99Speedup are baselineCPI/thisCPI — >1 means
	// the policy beat running everything cold.
	MeanSpeedup float64
	P50Speedup  float64
	P99Speedup  float64
}

// Frontier sweeps policies × budgets over one tenant set and arrival seed.
// The arrival tape is built once and replayed, read-only, for every run on
// up to width goroutines. The "none" baseline is computed once (it is
// budget-independent) and every point's speedups are measured against it.
// Points are emitted in (policy, budget) order, and an error is the one
// the first failing point in that order reports; ctx cancellation aborts
// between runs.
func Frontier(ctx context.Context, tenants []Tenant, policies []string, budgets []uint64, p Params, width int) ([]FrontierPoint, error) {
	p = p.withDefaults()
	tape := mergedSchedule(tenants, p)
	base := p
	base.Policy = NewNone()
	baseline, err := replay(tenants, base, tape)
	if err != nil {
		return nil, fmt.Errorf("budget: baseline: %w", err)
	}

	// Workers claim points in order and stop claiming after a failure, so
	// every point before a failed one has run and the first error in order
	// is the one a serial sweep would report.
	points := make([]FrontierPoint, len(policies)*len(budgets))
	errs := make([]error, len(points))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(max(width, 1), len(points)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(points) {
					return
				}
				points[i], errs[i] = frontierPoint(ctx, tenants, p, tape, baseline,
					policies[i/len(budgets)], budgets[i%len(budgets)])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// frontierPoint replays the tape under a fresh policy at one budget.
func frontierPoint(ctx context.Context, tenants []Tenant, p Params, tape []event, baseline Outcome, policy string, budget uint64) (FrontierPoint, error) {
	if err := ctx.Err(); err != nil {
		return FrontierPoint{}, err
	}
	pol, err := NewPolicy(policy)
	if err != nil {
		return FrontierPoint{}, err
	}
	p.Policy, p.BudgetBytes = pol, budget
	o, err := replay(tenants, p, tape)
	if err != nil {
		return FrontierPoint{}, err
	}
	return FrontierPoint{
		Outcome:     o,
		MeanSpeedup: baseline.MeanCPI / o.MeanCPI,
		P50Speedup:  baseline.P50CPI / o.P50CPI,
		P99Speedup:  baseline.P99CPI / o.P99CPI,
	}, nil
}
