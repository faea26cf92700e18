// Package engine implements the cycle-approximate core model: a decoupled
// front-end (FDP) with a fetch target queue, BPU-gated prefetch lookahead,
// wrong-path fetch generation, pipeline resteer penalties, a simple
// out-of-order back-end latency-hiding model, and top-down CPI-stack
// accounting.
//
// The model is trace-driven over the committed path, but the front-end
// walks ahead of commit along the path the BPU would predict: lookahead
// advances only while the BTB identifies the next taken branch and the CBP
// predicts its direction correctly, exactly the gating the paper identifies
// as the reason cold-BPU prefetching fails (Section 3). Prefetch coverage,
// wrong-path pollution and flush penalties all emerge from this mechanism.
package engine

import (
	"ignite/internal/btb"
	"ignite/internal/cache"
	"ignite/internal/tlb"
)

// Config holds all core-model parameters. DefaultConfig follows the paper's
// Table 2 where applicable.
type Config struct {
	// Width is the maximum retire rate in instructions per cycle
	// (16 fetch bytes/cycle at 4-byte instructions).
	Width int
	// FTQDepth caps how many basic blocks the decoupled front-end may
	// run ahead of commit (32-entry FTQ).
	FTQDepth int

	// MispredictPenalty is the pipeline flush cost of a conditional or
	// indirect misprediction resolved at execute.
	MispredictPenalty int
	// DecodeResteerPenalty is the cheaper front-end resteer when a
	// BTB-missing unconditional branch is discovered at decode.
	DecodeResteerPenalty int
	// BoomerangFillBubble is the fetch bubble charged when Boomerang
	// repairs a BTB miss via its 6-cycle predecode path.
	BoomerangFillBubble int

	// NLDegree is the next-line prefetch degree (baseline prefetcher,
	// active in every configuration).
	NLDegree int
	// NLChainOnHit additionally triggers next-line prefetches on the
	// first hit to a prefetched line (chained streaming). Off by
	// default: with instantaneous issue at block granularity, chaining
	// makes NL unrealistically timely.
	NLChainOnHit bool
	// WrongPathBurst is the number of sequential wrong-path lines the
	// front-end fetches past an undetected divergence before resolution.
	WrongPathBurst int
	// RASDepth is the return address stack capacity; returns past an
	// overflowed stack mispredict (default 32).
	RASDepth int

	// Feature toggles.
	NLEnabled        bool
	FDPEnabled       bool
	BoomerangEnabled bool

	// Ideal front-end components (the paper's Ideal configuration).
	PerfectL1I bool
	PerfectBTB bool

	// MaxCycles is the per-invocation cycle budget (0 = unlimited). A
	// modeling bug that stops the trace from making progress would
	// otherwise hang a scheduler worker forever; with a budget the
	// invocation aborts with ErrCycleBudget and the cell fails cleanly.
	// The watchdog can only abort a run — it never alters the results of
	// one that completes — so, like tracing and checking, it is not part
	// of the experiment cell-cache key.
	MaxCycles uint64

	// Geometry.
	BTB  btb.Config
	ITLB tlb.Config
	Lat  cache.Latencies
	// L2SizeBytes overrides the L2 capacity (0 = Table 2's 1280 KiB).
	// The hierarchy keeps its 20-way geometry, so the size must leave a
	// power-of-two set count (320/640/1280/2560... KiB).
	L2SizeBytes int

	// Data-side model.
	Data DataConfig
}

// Validate reports whether New can build c: its BTB and, when L2SizeBytes
// overrides it, its L2.
func (c Config) Validate() error {
	err := c.BTB.Validate()
	if err == nil && c.L2SizeBytes > 0 {
		err = c.l2().Validate()
	}
	return err
}

// l2 is the L2 that L2SizeBytes asks for: the hierarchy's 20-way geometry
// at the overridden size.
func (c Config) l2() cache.Config {
	return cache.Config{Name: "L2", SizeBytes: c.L2SizeBytes, LineBytes: cache.LineBytesConst, Ways: 20, HitLatency: c.Lat.L2}
}

// DataConfig parameterizes the synthetic data-access stream that produces
// the back-end component of the CPI stack. Data addresses are identical
// across invocations of the same function, so back-to-back invocations find
// warm data caches while lukewarm invocations do not — matching Figure 1's
// back-end stall growth.
type DataConfig struct {
	// MemOpFrac is the fraction of instructions that access memory.
	MemOpFrac float64
	// FootprintBytes is the data working set of one invocation.
	FootprintBytes uint64
	// HotFrac is the fraction of accesses that go to the hot subset.
	HotFrac float64
	// HotRegionFrac is the size of the hot subset as a fraction of the
	// footprint.
	HotRegionFrac float64
	// StrideFrac is the fraction of accesses that follow sequential
	// streams (caught by the baseline stride prefetcher).
	StrideFrac float64
	// HideLatency is the latency (cycles) the out-of-order back-end
	// hides per access; only the excess stalls retirement.
	HideLatency int
	// MLP is the average number of overlapping long-latency data misses.
	MLP float64
}

// DefaultConfig returns the Table 2 core with all prefetchers off except
// the always-on next-line baseline.
func DefaultConfig() Config {
	return Config{
		Width:                4,
		FTQDepth:             24,
		MispredictPenalty:    16,
		DecodeResteerPenalty: 8,
		BoomerangFillBubble:  0,
		NLDegree:             1,
		WrongPathBurst:       8,
		RASDepth:             32,
		NLEnabled:            true,
		BTB:                  btb.DefaultConfig(),
		ITLB:                 tlb.DefaultConfig(),
		Lat:                  cache.DefaultLatencies(),
		Data:                 DefaultDataConfig(),
	}
}

// DefaultDataConfig returns a moderate data-side profile.
func DefaultDataConfig() DataConfig {
	return DataConfig{
		MemOpFrac:      0.30,
		FootprintBytes: 768 << 10,
		HotFrac:        0.85,
		HotRegionFrac:  0.15,
		StrideFrac:     0.35,
		HideLatency:    30,
		MLP:            4,
	}
}
