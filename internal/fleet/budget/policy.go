package budget

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Policy decides which tenants' recorded metadata stays resident in the
// node's budget. The market calls Reset once per run, then OnHit for every
// invocation of a resident tenant and OnMiss for every invocation of an
// evicted one; OnMiss answers whether to admit the tenant (its cold
// invocation just re-recorded the metadata) and which residents to evict
// first. A policy must never admit beyond the budget — the market verifies
// and fails the run on a violation rather than silently repairing it.
type Policy interface {
	Name() string
	Reset(tenants []Tenant, budgetBytes uint64)
	OnHit(tenant int, now float64)
	OnMiss(tenant int, now float64) (admit bool, victims []int)
}

// unbounded marks a policy that ignores the budget (the no-budget oracle);
// the market prices it with an unlimited budget.
type unbounded interface{ Unbounded() bool }

// benefitScore is the SPES-style benefit density of keeping a tenant warm:
// cycles saved per second of offered load, per byte of resident metadata.
func benefitScore(t Tenant) float64 {
	if t.C.MetaBytes == 0 {
		return 0
	}
	saved := (t.C.ColdCPI - t.C.WarmCPI) * float64(t.C.Instrs)
	return saved * t.F.RatePerSec / float64(t.C.MetaBytes)
}

// residency is the bookkeeping the dynamic policies share: the resident
// set, its byte occupancy, and per-tenant metadata sizes.
type residency struct {
	budget   uint64
	used     uint64
	resident []bool
	size     []uint64
}

func (r *residency) reset(tenants []Tenant, budget uint64) {
	r.budget = budget
	r.used = 0
	r.resident = make([]bool, len(tenants))
	r.size = make([]uint64, len(tenants))
	for i, t := range tenants {
		r.size[i] = t.C.MetaBytes
	}
}

func (r *residency) evict(i int) {
	if r.resident[i] {
		r.resident[i] = false
		r.used -= r.size[i]
	}
}

func (r *residency) admit(i int) {
	if !r.resident[i] {
		r.resident[i] = true
		r.used += r.size[i]
	}
}

// LRU admits every recorded tenant and evicts the least-recently-invoked
// residents until the newcomer fits. Residents sit on an intrusive recency
// list, oldest at the head: the market delivers arrivals in (time, tenant)
// order, so moving each touched tenant to the tail keeps the list in
// (last touch, index) order and eviction pops from the head.
type LRU struct {
	residency
	prev, next []int // recency links; index len(tenants) is the sentinel
}

// NewLRU returns the least-recently-used policy.
func NewLRU() *LRU { return &LRU{} }

func (p *LRU) Name() string { return "lru" }

func (p *LRU) Reset(tenants []Tenant, budget uint64) {
	p.reset(tenants, budget)
	n := len(tenants)
	p.prev = make([]int, n+1)
	p.next = make([]int, n+1)
	p.prev[n], p.next[n] = n, n
}

func (p *LRU) unlink(i int) {
	p.next[p.prev[i]] = p.next[i]
	p.prev[p.next[i]] = p.prev[i]
}

func (p *LRU) pushBack(i int) {
	s := len(p.prev) - 1
	p.prev[i], p.next[i] = p.prev[s], s
	p.next[p.prev[s]] = i
	p.prev[s] = i
}

func (p *LRU) OnHit(i int, _ float64) {
	p.unlink(i)
	p.pushBack(i)
}

func (p *LRU) OnMiss(i int, _ float64) (bool, []int) {
	need := p.size[i]
	if need > p.budget {
		return false, nil
	}
	// Evict coldest residents until the newcomer fits.
	var victims []int
	for p.budget-p.used < need {
		v := p.next[len(p.next)-1]
		p.unlink(v)
		p.evict(v)
		victims = append(victims, v)
	}
	p.admit(i)
	p.pushBack(i)
	return true, victims
}

// Benefit is the cost-aware policy: it admits a recorded tenant only when
// its benefit density exceeds that of the residents it would displace —
// evictions only ever trade lower-density metadata for higher-density
// metadata, never churn on recency alone. Reset ranks the tenants once by
// (density, index), and the residents are a bitset over ranks, so a miss
// walks its candidate victims in eviction order without a scan or a sort.
type Benefit struct {
	residency
	byRank   []int    // rank → tenant
	rank     []int    // tenant → rank
	floor    []int    // tenant → the first rank of its density
	resRanks []uint64 // bit r is set while the tenant of rank r is resident
}

// NewBenefit returns the SPES-style benefit-per-byte policy.
func NewBenefit() *Benefit { return &Benefit{} }

func (p *Benefit) Name() string { return "benefit" }

func (p *Benefit) Reset(tenants []Tenant, budget uint64) {
	p.reset(tenants, budget)
	n := len(tenants)
	score := make([]float64, n)
	p.byRank = make([]int, n)
	for i, t := range tenants {
		score[i], p.byRank[i] = benefitScore(t), i
	}
	slices.SortFunc(p.byRank, func(a, b int) int {
		if c := cmp.Compare(score[a], score[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	p.rank = make([]int, n)
	p.floor = make([]int, n)
	first := 0
	for r, i := range p.byRank {
		if r > 0 && score[p.byRank[r-1]] != score[i] {
			first = r
		}
		p.rank[i], p.floor[i] = r, first
	}
	p.resRanks = make([]uint64, (n+63)/64)
}

func (p *Benefit) OnHit(int, float64) {}

func (p *Benefit) OnMiss(i int, _ float64) (bool, []int) {
	need := p.size[i]
	if need > p.budget {
		return false, nil
	}
	// Displace strictly lower-density residents, cheapest first: the
	// resident ranks below the newcomer's first equal-density rank.
	var victims []int
	freed, floor := p.budget-p.used, p.floor[i]
	for w := 0; freed < need && w*64 < floor; w++ {
		for set := p.resRanks[w]; set != 0 && freed < need; set &= set - 1 {
			r := w*64 + bits.TrailingZeros64(set)
			if r >= floor {
				break
			}
			v := p.byRank[r]
			victims = append(victims, v)
			freed += p.size[v]
		}
	}
	if freed < need {
		return false, nil
	}
	for _, v := range victims {
		p.evict(v)
		p.resRanks[p.rank[v]/64] &^= 1 << (p.rank[v] % 64)
	}
	p.admit(i)
	p.resRanks[p.rank[i]/64] |= 1 << (p.rank[i] % 64)
	return true, victims
}

// TopK is the static plan: at Reset it greedily packs the budget with the
// highest benefit-density tenants; membership never changes at runtime. A
// member becomes resident after its first (recording) invocation; everyone
// else always runs cold.
type TopK struct {
	residency
	member []bool
}

// NewTopK returns the static top-K-by-benefit-density policy.
func NewTopK() *TopK { return &TopK{} }

func (p *TopK) Name() string { return "topk" }

func (p *TopK) Reset(tenants []Tenant, budget uint64) {
	p.reset(tenants, budget)
	p.member = make([]bool, len(tenants))
	order := make([]int, len(tenants))
	for i := range order {
		order[i] = i
	}
	scores := make([]float64, len(tenants))
	for i, t := range tenants {
		scores[i] = benefitScore(t)
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return order[a] < order[b]
	})
	var packed uint64
	for _, i := range order {
		if sz := p.size[i]; packed+sz <= budget {
			p.member[i] = true
			packed += sz
		}
	}
}

func (p *TopK) OnHit(int, float64) {}

func (p *TopK) OnMiss(i int, _ float64) (bool, []int) {
	if !p.member[i] {
		return false, nil
	}
	p.admit(i)
	return true, nil
}

// Oracle is the no-budget upper bound: every tenant is admitted after its
// first recording invocation and nothing is ever evicted. The market prices
// it with an unlimited budget.
type Oracle struct{ residency }

// NewOracle returns the no-budget oracle policy.
func NewOracle() *Oracle { return &Oracle{} }

func (p *Oracle) Name() string       { return "oracle" }
func (p *Oracle) Unbounded() bool    { return true }
func (p *Oracle) OnHit(int, float64) {}

func (p *Oracle) Reset(tenants []Tenant, budget uint64) { p.reset(tenants, budget) }

func (p *Oracle) OnMiss(i int, _ float64) (bool, []int) {
	if p.size[i] > p.budget-p.used {
		return false, nil
	}
	p.admit(i)
	return true, nil
}

// None is the all-cold lower bound — the baseline every speedup is
// measured against.
type None struct{}

// NewNone returns the never-admit policy.
func NewNone() *None { return &None{} }

func (*None) Name() string                      { return "none" }
func (*None) Reset([]Tenant, uint64)            {}
func (*None) OnHit(int, float64)                {}
func (*None) OnMiss(int, float64) (bool, []int) { return false, nil }

// PolicyNames lists the built-in policies in presentation order.
func PolicyNames() []string { return []string{"lru", "benefit", "topk", "oracle", "none"} }

// NewPolicy resolves a policy name.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(), nil
	case "benefit":
		return NewBenefit(), nil
	case "topk":
		return NewTopK(), nil
	case "oracle":
		return NewOracle(), nil
	case "none":
		return NewNone(), nil
	}
	return nil, fmt.Errorf("budget: unknown policy %q (valid: %s)",
		name, strings.Join(PolicyNames(), ", "))
}
