package budget_test

import (
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ignite/internal/fleet/budget"
	"ignite/internal/fleet/population"
	"ignite/internal/ignite"
	"ignite/internal/loadgen"
)

func sampleTenants(t *testing.T, seed uint64, n int) []budget.Tenant {
	t.Helper()
	fns, err := population.Sample(population.Params{Seed: seed, N: n})
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := budget.Tenants(fns, budget.Analytic{})
	if err != nil {
		t.Fatal(err)
	}
	return tenants
}

func runParams(seed uint64, b uint64, p budget.Policy) budget.Params {
	return budget.Params{
		Seed:        seed,
		Duration:    30 * time.Second,
		Process:     loadgen.Poisson,
		BudgetBytes: b,
		Policy:      p,
	}
}

// TestMarketDeterminism pins the market's reproducibility contract: the
// same tenants, seed and policy produce byte-identical outcomes.
func TestMarketDeterminism(t *testing.T) {
	tenants := sampleTenants(t, 11, 150)
	const b = 4 << 20
	ref, err := budget.Run(tenants, runParams(5, b, budget.NewLRU()))
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	for i := 0; i < 3; i++ {
		got, err := budget.Run(tenants, runParams(5, b, budget.NewLRU()))
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		if string(gotJSON) != string(refJSON) {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, gotJSON, refJSON)
		}
	}
	if ref.Invocations == 0 || ref.Warm == 0 || ref.Cold == 0 {
		t.Fatalf("degenerate outcome: %+v", ref)
	}
}

// TestPolicyOrdering checks the lower/upper bounds sandwich every real
// policy: all-cold "none" is the worst mean CPI, the no-budget oracle the
// best, and every budgeted policy lands between them.
func TestPolicyOrdering(t *testing.T) {
	tenants := sampleTenants(t, 21, 200)
	const b = 6 << 20

	outcomes := map[string]budget.Outcome{}
	for _, name := range budget.PolicyNames() {
		pol, err := budget.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		o, err := budget.Run(tenants, runParams(9, b, pol))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outcomes[name] = o
	}

	none, oracle := outcomes["none"], outcomes["oracle"]
	if none.Warm != 0 {
		t.Fatalf("none admitted %d warm invocations", none.Warm)
	}
	if oracle.MeanCPI >= none.MeanCPI {
		t.Fatalf("oracle mean CPI %.4f not better than all-cold %.4f", oracle.MeanCPI, none.MeanCPI)
	}
	for _, name := range []string{"lru", "benefit", "topk"} {
		o := outcomes[name]
		if o.MeanCPI > none.MeanCPI {
			t.Errorf("%s mean CPI %.4f worse than all-cold %.4f", name, o.MeanCPI, none.MeanCPI)
		}
		if o.MeanCPI < oracle.MeanCPI {
			t.Errorf("%s mean CPI %.4f beats the no-budget oracle %.4f", name, o.MeanCPI, oracle.MeanCPI)
		}
		if o.Warm == 0 {
			t.Errorf("%s: no warm invocations under a %d MiB budget", name, b>>20)
		}
	}
}

// TestBudgetMonotonicity checks that growing the budget never worsens the
// aggregate mean CPI for the static and recency policies (the property the
// check/props harness re-verifies fleet-wide).
func TestBudgetMonotonicity(t *testing.T) {
	tenants := sampleTenants(t, 33, 150)
	budgets := []uint64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 64 << 20}
	for _, name := range []string{"topk", "benefit"} {
		prev := -1.0
		for _, b := range budgets {
			pol, err := budget.NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			o, err := budget.Run(tenants, runParams(17, b, pol))
			if err != nil {
				t.Fatalf("%s @ %d: %v", name, b, err)
			}
			if prev >= 0 && o.MeanCPI > prev+1e-9 {
				t.Errorf("%s: mean CPI rose from %.6f to %.6f when budget grew to %d MiB",
					name, prev, o.MeanCPI, b>>20)
			}
			prev = o.MeanCPI
		}
	}
}

// TestFrontier exercises the sweep: speedups are ≥1 relative to the
// all-cold baseline and the oracle dominates at every budget. Every point,
// replayed from the sweep's one shared arrival tape, must equal a
// standalone Run of the same policy and budget, with speedups against a
// standalone all-cold run. The points replay four goroutines wide and must
// still come out in (policy, budget) order.
func TestFrontier(t *testing.T) {
	tenants := sampleTenants(t, 77, 120)
	policies := []string{"lru", "benefit", "oracle"}
	budgets := []uint64{2 << 20, 8 << 20}
	p := budget.Params{Seed: 3, Duration: 20 * time.Second, Process: loadgen.Poisson}
	points, err := budget.Frontier(context.Background(), tenants, policies, budgets, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d frontier points, want 6", len(points))
	}
	for i, pt := range points {
		if pol, b := policies[i/len(budgets)], budgets[i%len(budgets)]; pt.Policy != pol || pt.BudgetBytes != b {
			t.Errorf("point %d is %s @ %d bytes, want %s @ %d bytes", i, pt.Policy, pt.BudgetBytes, pol, b)
		}
	}
	base := p
	base.Policy = budget.NewNone()
	none, err := budget.Run(tenants, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.MeanSpeedup < 1-1e-9 {
			t.Errorf("%s @ %d MiB: mean speedup %.4f below the all-cold baseline",
				pt.Policy, pt.BudgetBytes>>20, pt.MeanSpeedup)
		}
		if pt.P99Speedup <= 0 {
			t.Errorf("%s @ %d MiB: non-positive p99 speedup", pt.Policy, pt.BudgetBytes>>20)
		}
		pol, err := budget.NewPolicy(pt.Policy)
		if err != nil {
			t.Fatal(err)
		}
		run := p
		run.Policy, run.BudgetBytes = pol, pt.BudgetBytes
		want, err := budget.Run(tenants, run)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(pt.Outcome)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s @ %d MiB:\nfrontier: %s\nrun:      %s", pt.Policy, pt.BudgetBytes>>20, gotJSON, wantJSON)
		}
		if pt.MeanSpeedup != none.MeanCPI/want.MeanCPI || pt.P99Speedup != none.P99CPI/want.P99CPI {
			t.Errorf("%s @ %d MiB: speedups not against a standalone all-cold run", pt.Policy, pt.BudgetBytes>>20)
		}
	}
}

// TestFrontierCancellation checks ctx cancellation aborts the sweep.
func TestFrontierCancellation(t *testing.T) {
	tenants := sampleTenants(t, 77, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := budget.Frontier(ctx, tenants, []string{"lru"}, []uint64{1 << 20},
		budget.Params{Seed: 3, Duration: 10 * time.Second}, 2); err == nil {
		t.Fatal("cancelled frontier sweep returned no error")
	}
}

// TestFrontierUnknownPolicy checks that a point failing mid-sweep fails the
// whole sweep when points run in parallel.
func TestFrontierUnknownPolicy(t *testing.T) {
	tenants := sampleTenants(t, 77, 50)
	_, err := budget.Frontier(context.Background(), tenants, []string{"lru", "nope", "topk"},
		[]uint64{1 << 20, 2 << 20}, budget.Params{Seed: 3, Duration: 10 * time.Second}, 4)
	if err == nil || !strings.Contains(err.Error(), `unknown policy "nope"`) {
		t.Fatalf("frontier with an unknown policy: err %v, want the unknown-policy error", err)
	}
}

// TestAnalyticTracksSimulated anchors the closed-form model to the ground
// truth: for a handful of sampled functions the analytic and simulated
// models must agree that warm beats cold, and the analytic metadata sizes
// must respect the per-function cap like the simulator does.
func TestAnalyticTracksSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated cost model in -short mode")
	}
	fns, err := population.Sample(population.Params{Seed: 5, N: 40, TargetInstr: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	simModel := budget.Simulated{TargetInstr: 60_000}
	checked := map[population.Flavor]bool{}
	for _, f := range fns {
		if checked[f.Flavor] || f.Flavor == population.Huge {
			continue
		}
		checked[f.Flavor] = true
		ac, err := budget.Analytic{}.Costs(f)
		if err != nil {
			t.Fatalf("%s analytic: %v", f.Name, err)
		}
		sc, err := simModel.Costs(f)
		if err != nil {
			t.Fatalf("%s simulated: %v", f.Name, err)
		}
		if ac.WarmCPI >= ac.ColdCPI {
			t.Errorf("%s: analytic warm CPI %.3f not below cold %.3f", f.Name, ac.WarmCPI, ac.ColdCPI)
		}
		if sc.WarmCPI >= sc.ColdCPI {
			t.Errorf("%s: simulated warm CPI %.3f not below cold %.3f", f.Name, sc.WarmCPI, sc.ColdCPI)
		}
		if ac.MetaBytes > ignite.MaxMetadataBytes {
			t.Errorf("%s: analytic metadata %d exceeds the %d-byte cap", f.Name, ac.MetaBytes, ignite.MaxMetadataBytes)
		}
		if sc.MetaBytes == 0 || sc.MetaBytes > ignite.MaxMetadataBytes {
			t.Errorf("%s: simulated metadata %d outside (0, %d]", f.Name, sc.MetaBytes, ignite.MaxMetadataBytes)
		}
	}
}

// TestPolicyValidation exercises the error paths.
func TestPolicyValidation(t *testing.T) {
	if _, err := budget.NewPolicy("clairvoyant"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := budget.Run(nil, budget.Params{Policy: budget.NewLRU()}); err == nil {
		t.Error("empty tenant set accepted")
	}
	tenants := sampleTenants(t, 1, 5)
	if _, err := budget.Run(tenants, budget.Params{}); err == nil {
		t.Error("nil policy accepted")
	}
}

// sortLRU is the LRU the recency list replaced, kept as the reference: on a
// miss that needs room it collects every resident and sorts them by (last
// touch, index).
type sortLRU struct {
	budget, used uint64
	size         []uint64
	resident     []bool
	lastTouch    []float64
}

func (p *sortLRU) Name() string { return "lru" }

func (p *sortLRU) Reset(tenants []budget.Tenant, b uint64) {
	p.budget, p.used = b, 0
	p.size = make([]uint64, len(tenants))
	p.resident = make([]bool, len(tenants))
	p.lastTouch = make([]float64, len(tenants))
	for i, t := range tenants {
		p.size[i] = t.C.MetaBytes
	}
}

func (p *sortLRU) OnHit(i int, now float64) { p.lastTouch[i] = now }

func (p *sortLRU) OnMiss(i int, now float64) (bool, []int) {
	p.lastTouch[i] = now
	need := p.size[i]
	if need > p.budget {
		return false, nil
	}
	var cands []int
	for j, res := range p.resident {
		if res {
			cands = append(cands, j)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if ta, tb := p.lastTouch[cands[a]], p.lastTouch[cands[b]]; ta != tb {
			return ta < tb
		}
		return cands[a] < cands[b]
	})
	var victims []int
	for _, v := range cands {
		if p.budget-p.used >= need {
			break
		}
		victims = append(victims, v)
		p.resident[v] = false
		p.used -= p.size[v]
	}
	p.resident[i] = true
	p.used += need
	return true, victims
}

// TestLRUMatchesSortedReference pins the recency-list LRU to the sorting
// one it replaced: identical outcomes at the tenant sets, seeds and budgets
// of TestPolicyOrdering and TestBudgetMonotonicity.
func TestLRUMatchesSortedReference(t *testing.T) {
	cases := []struct {
		tenantSeed, runSeed uint64
		n                   int
		budgets             []uint64
	}{
		{21, 9, 200, []uint64{6 << 20}},
		{33, 17, 150, []uint64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 64 << 20}},
	}
	evictions := 0
	for _, c := range cases {
		tenants := sampleTenants(t, c.tenantSeed, c.n)
		for _, b := range c.budgets {
			got, err := budget.Run(tenants, runParams(c.runSeed, b, budget.NewLRU()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := budget.Run(tenants, runParams(c.runSeed, b, &sortLRU{}))
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("tenants %d, seed %d, %d MiB:\nlist:   %s\nsorted: %s",
					c.tenantSeed, c.runSeed, b>>20, gotJSON, wantJSON)
			}
			evictions += got.Evictions
		}
	}
	if evictions == 0 {
		t.Fatal("no budget evicted anything; the comparison is vacuous")
	}
}

// TestLRUTieEvictsLowerIndex drives the policies directly: two residents
// last touched at the same instant, in index order as the market delivers
// them, must be evicted lower index first even though they were admitted
// in the other order.
func TestLRUTieEvictsLowerIndex(t *testing.T) {
	tenants := make([]budget.Tenant, 3)
	for i := range tenants {
		tenants[i].C.MetaBytes = 100
	}
	for _, p := range []budget.Policy{budget.NewLRU(), &sortLRU{}} {
		p.Reset(tenants, 200)
		for _, i := range []int{1, 0} {
			if admit, victims := p.OnMiss(i, float64(2-i)); !admit || len(victims) != 0 {
				t.Fatalf("%T: admitting tenant %d into free space: admit=%v victims=%v", p, i, admit, victims)
			}
		}
		p.OnHit(0, 3)
		p.OnHit(1, 3)
		if admit, victims := p.OnMiss(2, 4); !admit || len(victims) != 1 || victims[0] != 0 {
			t.Errorf("%T: OnMiss(2) = %v, %v; want admit with victims [0]", p, admit, victims)
		}
	}
}

// scanBenefit is the Benefit the rank bitset replaced, kept as the
// reference: on a miss that needs room it scans every tenant for residents
// of strictly lower density and sorts them by (density, index).
type scanBenefit struct {
	budget, used uint64
	size         []uint64
	resident     []bool
	score        []float64
}

func (p *scanBenefit) Name() string { return "benefit" }

func (p *scanBenefit) Reset(tenants []budget.Tenant, b uint64) {
	p.budget, p.used = b, 0
	p.size = make([]uint64, len(tenants))
	p.resident = make([]bool, len(tenants))
	p.score = make([]float64, len(tenants))
	for i, t := range tenants {
		p.size[i], p.score[i] = t.C.MetaBytes, budget.BenefitScore(t)
	}
}

func (p *scanBenefit) OnHit(int, float64) {}

func (p *scanBenefit) OnMiss(i int, _ float64) (bool, []int) {
	need := p.size[i]
	if need > p.budget {
		return false, nil
	}
	free := p.budget - p.used
	if free >= need {
		p.resident[i] = true
		p.used += need
		return true, nil
	}
	type cand struct {
		idx   int
		score float64
	}
	var cands []cand
	for j, res := range p.resident {
		if res && p.score[j] < p.score[i] {
			cands = append(cands, cand{j, p.score[j]})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score < cands[b].score
		}
		return cands[a].idx < cands[b].idx
	})
	var victims []int
	freed := free
	for _, c := range cands {
		if freed >= need {
			break
		}
		victims = append(victims, c.idx)
		freed += p.size[c.idx]
	}
	if freed < need {
		return false, nil
	}
	for _, v := range victims {
		p.resident[v] = false
		p.used -= p.size[v]
	}
	p.resident[i] = true
	p.used += need
	return true, victims
}

// TestBenefitMatchesScanReference pins the ranked Benefit to the scanning
// one it replaced: identical outcomes at TestLRUMatchesSortedReference's
// tenant sets, seeds and budgets, and on the default fleet (1000 tenants
// sampled with seed 1, arrival seed 1) at the budgets where Benefit evicts.
func TestBenefitMatchesScanReference(t *testing.T) {
	cases := []struct {
		tenantSeed, runSeed uint64
		n                   int
		budgets             []uint64
	}{
		{21, 9, 200, []uint64{6 << 20}},
		{33, 17, 150, []uint64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 64 << 20}},
		{1, 1, 1000, []uint64{2 << 20, 8 << 20, 16 << 20}},
	}
	evictions := 0
	for _, c := range cases {
		tenants := sampleTenants(t, c.tenantSeed, c.n)
		for _, b := range c.budgets {
			got, err := budget.Run(tenants, runParams(c.runSeed, b, budget.NewBenefit()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := budget.Run(tenants, runParams(c.runSeed, b, &scanBenefit{}))
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("tenants %d, seed %d, %d MiB:\nranked: %s\nscan:   %s",
					c.tenantSeed, c.runSeed, b>>20, gotJSON, wantJSON)
			}
			evictions += got.Evictions
		}
	}
	if evictions == 0 {
		t.Fatal("no budget evicted anything; the comparison is vacuous")
	}
}

// TestBenefitDisplacesOnlyLowerDensity drives both Benefit policies
// directly. Tenant i of the fixture has density dens[i] and size sizes[i]
// (in bytes) under a 100-byte budget.
func TestBenefitDisplacesOnlyLowerDensity(t *testing.T) {
	fixture := func(dens []float64, sizes []uint64) []budget.Tenant {
		tenants := make([]budget.Tenant, len(dens))
		for i := range tenants {
			tenants[i].F.RatePerSec = 1
			tenants[i].C = budget.Costs{ColdCPI: 2, WarmCPI: 1, MetaBytes: sizes[i],
				Instrs: uint64(dens[i] * float64(sizes[i]))}
		}
		return tenants
	}
	type miss struct {
		tenant  int
		admit   bool
		victims []int
	}
	cases := []struct {
		name  string
		dens  []float64
		sizes []uint64
		steps []miss
	}{
		{
			// An equal-density resident is never displaced, even by a
			// newcomer of higher index.
			"equal density",
			[]float64{1, 1, 3, 4},
			[]uint64{50, 50, 50, 100},
			[]miss{{0, true, nil}, {2, true, nil}, {1, false, nil}, {3, true, []int{0, 2}}},
		},
		{
			// Equal lower-density residents go lower index first, whatever
			// order they were admitted in.
			"tie",
			[]float64{1, 1, 2},
			[]uint64{50, 50, 50},
			[]miss{{1, true, nil}, {0, true, nil}, {2, true, []int{0}}},
		},
		{
			// The lower-density residents cannot free enough: refused, and
			// nothing is evicted, so a denser newcomer still finds both.
			"refused",
			[]float64{1, 3, 2, 4},
			[]uint64{50, 50, 100, 100},
			[]miss{{0, true, nil}, {1, true, nil}, {2, false, nil}, {3, true, []int{0, 1}}},
		},
	}
	for _, c := range cases {
		tenants := fixture(c.dens, c.sizes)
		for _, p := range []budget.Policy{budget.NewBenefit(), &scanBenefit{}} {
			p.Reset(tenants, 100)
			for _, m := range c.steps {
				admit, victims := p.OnMiss(m.tenant, 0)
				if admit != m.admit || !slices.Equal(victims, m.victims) {
					t.Errorf("%s, %T: OnMiss(%d) = %v, %v; want %v, %v",
						c.name, p, m.tenant, admit, victims, m.admit, m.victims)
				}
			}
		}
	}
}

// BenchmarkFrontier times the budget market at the default fleet's shape:
// 1000 analytically priced tenants sampled with seed 1, a 30 s Poisson
// window, every real policy over the 2-64 MiB budget ladder.
func BenchmarkFrontier(b *testing.B) {
	fns, err := population.Sample(population.Params{Seed: 1, N: 1000})
	if err != nil {
		b.Fatal(err)
	}
	tenants, err := budget.Tenants(fns, budget.Analytic{})
	if err != nil {
		b.Fatal(err)
	}
	policies := []string{"lru", "benefit", "topk", "oracle"}
	budgets := []uint64{2 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20}
	p := budget.Params{Seed: 1, Duration: 30 * time.Second, Process: loadgen.Poisson}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := budget.Frontier(context.Background(), tenants, policies, budgets, p, runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	}
}
