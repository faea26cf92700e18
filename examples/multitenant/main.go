// Multitenant demonstrates the fleet half of the reproduction: a serverless
// node hosts a thousand sampled functions whose recorded Ignite metadata
// competes for one shared DRAM budget. A population sampler draws synthetic
// functions from the paper's Figure-2 characterization distributions, an
// analytic cost model prices each tenant's cold and lukewarm invocations,
// and the budget market plays Poisson arrival schedules through a ladder of
// admission/eviction policies — printing the policy frontier: how much of
// the all-cold slowdown each policy buys back per byte of metadata budget.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"ignite/internal/fleet/budget"
	"ignite/internal/fleet/population"
	"ignite/internal/loadgen"
)

func main() {
	// Sample the node's population: 1000 functions, ~70% inside the
	// paper's characterization bounds plus tiny hot utilities, huge
	// cold ML-style models, and chained workflow compositions.
	fns, err := population.Sample(population.Params{Seed: 42, N: 1000})
	if err != nil {
		log.Fatal(err)
	}
	tenants, err := budget.Tenants(fns, budget.Analytic{})
	if err != nil {
		log.Fatal(err)
	}
	var totalMeta uint64
	for _, t := range tenants {
		totalMeta += t.C.MetaBytes
	}
	fmt.Printf("population: %d functions, %.1f MiB total metadata if everyone stayed resident\n\n",
		len(tenants), float64(totalMeta)/(1<<20))

	// Sweep the policy × budget frontier. "oracle" is the no-budget upper
	// bound; speedups are against running every invocation cold.
	policies := []string{"lru", "benefit", "topk", "oracle"}
	budgets := []uint64{2 << 20, 8 << 20, 32 << 20}
	// The points replay one shared arrival tape on NumCPU goroutines.
	points, err := budget.Frontier(context.Background(), tenants, policies, budgets,
		budget.Params{Seed: 1, Duration: 30 * time.Second, Process: loadgen.Poisson}, runtime.NumCPU())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s  %10s  %9s  %12s  %12s  %11s\n",
		"policy", "budget MiB", "hit ratio", "mean speedup", "p99 speedup", "evictions")
	for _, pt := range points {
		fmt.Printf("%-8s  %10d  %9.3f  %12.3f  %12.3f  %11d\n",
			pt.Policy, pt.BudgetBytes>>20, pt.HitRatio,
			pt.MeanSpeedup, pt.P99Speedup, pt.Evictions)
	}
	fmt.Println("\ncost-aware admission (benefit, topk) holds the frontier at small budgets;")
	fmt.Println("by 32 MiB every policy converges toward the no-budget oracle.")
}
