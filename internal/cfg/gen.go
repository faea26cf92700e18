package cfg

import (
	"fmt"
	"math/rand/v2"
)

// GenParams parameterizes the synthetic program generator. The defaults
// (applied by Generate for zero fields) describe a mid-sized serverless
// function; the workload package provides per-function calibrated values.
type GenParams struct {
	Seed uint64
	Name string

	// CodeKiB is the target static code size in KiB. The paper's
	// functions touch 240-620 KiB of code per invocation (Fig. 2a).
	CodeKiB int
	// BranchSites is the target number of taken-capable static branch
	// sites — the program's potential BTB working set (Fig. 2b reports
	// 5.4K-14K entries).
	BranchSites int
	// MeanFuncBytes is the average function code size (default 4096).
	MeanFuncBytes int
	// CallSpan bounds how far ahead in the function index space local
	// calls reach (default 12).
	CallSpan int

	// IndirectFrac is the probability that a dispatch construct is
	// indirect (switch / indirect call) rather than direct; interpreters
	// (Python, NodeJS) have high values.
	IndirectFrac float64
	// PeriodicFrac is the fraction of conditionals with deterministic
	// periodic behaviour (learnable by TAGE, not by bimodal).
	PeriodicFrac float64
	// NeverTakenFrac is the fraction of conditionals that are never
	// taken (error checks); they consume no BTB capacity.
	NeverTakenFrac float64
	// HardFrac is the fraction of near-50/50 data-dependent
	// conditionals that no predictor captures well.
	HardFrac float64
	// ColdElseFrac is the fraction of if/else constructs whose else
	// path is dead code (cold static footprint).
	ColdElseFrac float64

	// MeanLoopTrips is the mean trip count of loops (default 4).
	MeanLoopTrips float64
	// FixedLoopFrac is the fraction of loops with exactly constant trip
	// counts (capturable by a loop predictor).
	FixedLoopFrac float64
	// RequestLoopTrips wraps the handler body in an outer loop with this
	// mean trip count, modeling repeated request-processing passes
	// within one invocation (default 3).
	RequestLoopTrips float64
}

func (gp GenParams) withDefaults() GenParams {
	if gp.Name == "" {
		gp.Name = "synthetic"
	}
	if gp.CodeKiB <= 0 {
		gp.CodeKiB = 384
	}
	if gp.BranchSites <= 0 {
		gp.BranchSites = 8000
	}
	if gp.MeanFuncBytes <= 0 {
		gp.MeanFuncBytes = 4096
	}
	if gp.CallSpan <= 0 {
		gp.CallSpan = 12
	}
	if gp.IndirectFrac < 0 {
		gp.IndirectFrac = 0
	}
	if gp.MeanLoopTrips <= 0 {
		gp.MeanLoopTrips = 4
	}
	if gp.RequestLoopTrips <= 0 {
		gp.RequestLoopTrips = 3
	}
	return gp
}

// GenReport summarizes a generated program against its targets.
type GenReport struct {
	NumFuncs         int
	StaticInstrs     uint64
	CodeBytes        uint64
	TakenBranchSites int
}

type generator struct {
	gp       GenParams
	rng      *rand.Rand
	p        *Program
	children [][]int // required callees per function

	numFuncs int
	// utilStart is the first index of the "utility leaf" pool: functions
	// with no outgoing calls. Only utilities may be called from repeated
	// contexts (loops, extra call sites, indirect calls), which bounds
	// the dynamic trace length: the coverage call graph is a tree in
	// which every non-utility function executes exactly once per
	// request-processing pass.
	utilStart int
	// per-function budgets
	instrBudget int
	siteBudget  int
	avgRun      int

	// running totals while generating one function
	instrs int
	sites  int

	pool []int // calleePool's buffer
}

// Generate builds a synthetic program matching the given parameters. The
// result is finalized and validated.
func Generate(gp GenParams) (*Program, GenReport, error) {
	gp = gp.withDefaults()
	g := &generator{
		gp:  gp,
		rng: rand.New(rand.NewPCG(gp.Seed, gp.Seed^0xda3e39cb94b95bdb)),
		p:   NewProgram(gp.Name),
	}
	codeBytes := gp.CodeKiB * 1024
	g.numFuncs = codeBytes / gp.MeanFuncBytes
	if g.numFuncs < 3 {
		g.numFuncs = 3
	}
	totalInstrs := codeBytes / InstrBytes
	g.instrBudget = totalInstrs / g.numFuncs
	g.siteBudget = gp.BranchSites / g.numFuncs
	if g.siteBudget < 2 {
		g.siteBudget = 2
	}
	g.avgRun = g.instrBudget / g.siteBudget
	if g.avgRun < 2 {
		g.avgRun = 2
	}

	g.utilStart = g.numFuncs - g.numFuncs/5
	if g.utilStart < 2 {
		g.utilStart = 2
	}
	if g.utilStart >= g.numFuncs {
		g.utilStart = g.numFuncs - 1
	}
	g.assignCallTree()

	// Generate every body first (each return-block length is drawn right
	// after its body, as before), then lower them all into tables each
	// allocated once at its exact length instead of grown by append.
	bodies := make([]Node, g.numFuncs)
	retNs := make([]int, g.numFuncs)
	var sz tableSizes
	for i := range bodies {
		body := g.genFunctionBody(i)
		if i == 0 {
			body = &Loop{
				Body:      body,
				MeanTrips: gp.RequestLoopTrips,
				LatchN:    2,
			}
		}
		bodies[i], retNs[i] = body, g.run(1)
		sz.measure(body)
		sz.blocks++ // the return block
	}
	g.p.Blocks = make([]Block, 0, sz.blocks)
	g.p.Funcs = make([]Function, 0, g.numFuncs)
	g.p.code = make([]op, 0, sz.ops)
	g.p.floats = make([]float64, 0, sz.floats)
	g.p.ints = make([]int32, 0, sz.ints)
	g.p.targets = make([]BlockID, 0, sz.targets)
	for i, body := range bodies {
		g.p.AddFunction(fmt.Sprintf("%s.fn%03d", gp.Name, i), body, retNs[i])
	}
	g.p.LayoutSeed = gp.Seed ^ 0x5eed1a0e
	if err := g.p.Finalize(); err != nil {
		return nil, GenReport{}, err
	}
	if err := g.p.Validate(); err != nil {
		return nil, GenReport{}, err
	}
	rep := GenReport{
		NumFuncs:         g.numFuncs,
		StaticInstrs:     g.p.NumInstr(),
		CodeBytes:        g.p.CodeBytes(),
		TakenBranchSites: g.p.StaticTakenBranchSites(),
	}
	return g.p, rep, nil
}

// assignCallTree gives every function (except the handler) exactly one
// caller with a lower, non-utility index. The coverage call graph is a tree:
// every function executes exactly once per request pass, bounding dynamic
// trace length. Half of the parents are drawn globally (shallow tree), half
// from a local window (call locality).
func (g *generator) assignCallTree() {
	g.children = make([][]int, g.numFuncs)
	for i := 1; i < g.numFuncs; i++ {
		hi := i // parent < min(i, utilStart)
		if hi > g.utilStart {
			hi = g.utilStart
		}
		var parent int
		if hi == 1 || g.rng.Float64() < 0.5 {
			parent = g.rng.IntN(hi)
		} else {
			lo := hi - g.gp.CallSpan
			if lo < 0 {
				lo = 0
			}
			parent = lo + g.rng.IntN(hi-lo)
		}
		g.children[parent] = append(g.children[parent], i)
	}
}

// run samples a straight-line run length around the program's average.
func (g *generator) run(minLen int) int {
	n := g.avgRun/2 + g.rng.IntN(g.avgRun+1)
	if n < minLen {
		n = minLen
	}
	return n
}

// genFunctionBody creates the body of function fi, consuming the per-
// function instruction and branch-site budgets and embedding the required
// coverage calls at guaranteed-execution positions.
func (g *generator) genFunctionBody(fi int) Node {
	g.instrs = 0
	g.sites = 1 // return block
	required := g.children[fi]

	// Utility leaves are small helpers (hashing, copying, formatting):
	// a quarter of a regular function. They are the only functions
	// callable from repeated contexts, so their size bounds the dynamic
	// cost of extra call sites.
	savedInstr, savedSite := g.instrBudget, g.siteBudget
	if fi >= g.utilStart {
		g.instrBudget /= 4
		g.siteBudget /= 4
		if g.siteBudget < 2 {
			g.siteBudget = 2
		}
		defer func() { g.instrBudget, g.siteBudget = savedInstr, savedSite }()
	}

	var frags []Node
	prologue := g.run(2)
	frags = append(frags, &Straight{N: prologue})
	g.instrs += prologue

	// Interleave required calls evenly among generated fragments.
	nextReq := 0
	fragCount := 0
	reqEvery := 3
	if len(required) > 0 {
		est := g.siteBudget
		if est < len(required)*2 {
			est = len(required) * 2
		}
		reqEvery = est / (len(required) + 1)
		if reqEvery < 1 {
			reqEvery = 1
		}
	}

	for g.sites < g.siteBudget || nextReq < len(required) {
		if nextReq < len(required) && fragCount%reqEvery == reqEvery-1 {
			callee := required[nextReq]
			nextReq++
			pre := g.run(1)
			frags = append(frags, &Call{PreN: pre, Callee: callee})
			g.instrs += pre + 1
			g.sites++
			fragCount++
			continue
		}
		frags = append(frags, g.genFragment(fi, 0))
		fragCount++
		if g.sites > g.siteBudget*3 { // safety against runaway
			break
		}
	}
	return &Seq{Nodes: frags}
}

// genFragment generates one random construct at nesting depth d. Only
// utility leaf functions may be called here; coverage calls are placed
// separately at the top level of each body.
func (g *generator) genFragment(fi, d int) Node {
	r := g.rng.Float64()
	indirect := g.rng.Float64() < g.gp.IndirectFrac
	canNest := d < 2
	mayCall := fi < g.utilStart && d == 0
	switch {
	case r < 0.34:
		return g.genIf(fi, d, false)
	case r < 0.50:
		return g.genIf(fi, d, true)
	case r < 0.72:
		return g.genLoop(fi, d, canNest)
	case r < 0.80 && indirect:
		return g.genSwitch(fi, d)
	case r < 0.83 && indirect && mayCall:
		return g.genIndirectCall(fi)
	case r < 0.86 && mayCall:
		return g.genExtraCall(fi)
	default:
		n := g.run(2)
		g.instrs += n
		return &Straight{N: n}
	}
}

// condProfile draws a conditional branch profile: (thenBias, period).
func (g *generator) condProfile() (float64, int) {
	r := g.rng.Float64()
	switch {
	case r < g.gp.NeverTakenFrac:
		// Error check: the skip path never executes.
		return 1.0, 0
	case r < g.gp.NeverTakenFrac+g.gp.PeriodicFrac:
		periods := []int{2, 3, 4, 6, 8, 16}
		return 0, periods[g.rng.IntN(len(periods))]
	case r < g.gp.NeverTakenFrac+g.gp.PeriodicFrac+g.gp.HardFrac:
		return 0.4 + 0.2*g.rng.Float64(), 0
	case r < g.gp.NeverTakenFrac+g.gp.PeriodicFrac+g.gp.HardFrac+0.42:
		// Strongly biased either direction (real branches are highly
		// predictable once warm); the minority direction still occurs,
		// so most of these enter the BTB working set over an
		// invocation.
		b := 0.8 + 0.18*g.rng.Float64()
		if g.rng.Float64() < 0.5 {
			b = 1 - b
		}
		return b, 0
	case r < g.gp.NeverTakenFrac+g.gp.PeriodicFrac+g.gp.HardFrac+0.57:
		// Highly biased towards the skip path (taken branch around a
		// rarely-executed body, e.g. fast-path guards).
		return 0.01 + 0.09*g.rng.Float64(), 0
	default:
		// Highly biased towards the then-part (common path); rarely
		// taken.
		return 0.9 + 0.099*g.rng.Float64(), 0
	}
}

func (g *generator) genIf(fi, d int, withElse bool) Node {
	bias, period := g.condProfile()
	condN := g.run(1)
	g.instrs += condN
	thenN := g.run(1)
	var then Node
	if d < 2 && g.rng.Float64() < 0.3 {
		then = &Seq{Nodes: []Node{&Straight{N: thenN}, g.genFragment(fi, d+1)}}
		g.instrs += thenN
	} else {
		then = &Straight{N: thenN}
		g.instrs += thenN
	}
	node := &If{CondN: condN, ThenBias: bias, Then: then, Period: period}
	if bias > 0 || period >= 2 {
		g.sites++ // the conditional can be taken
	}
	if withElse {
		elseN := g.run(1)
		node.Else = &Straight{N: elseN}
		g.instrs += elseN + 1
		g.sites++ // the jump over the else
		if g.rng.Float64() < g.gp.ColdElseFrac && period == 0 {
			node.ThenBias = 1.0 // else path is dead code
		}
	}
	return node
}

func (g *generator) genLoop(fi, d int, canNest bool) Node {
	bodyN := g.run(2)
	var body Node
	if canNest && g.rng.Float64() < 0.25 {
		body = &Seq{Nodes: []Node{&Straight{N: bodyN}, g.genFragment(fi, d+1)}}
		g.instrs += bodyN
	} else {
		body = &Straight{N: bodyN}
		g.instrs += bodyN
	}
	latchN := g.run(1)
	g.instrs += latchN
	g.sites++
	trips := g.gp.MeanLoopTrips * (0.5 + g.rng.Float64())
	if trips < 1.5 {
		trips = 1.5
	}
	return &Loop{
		Body:      body,
		MeanTrips: trips,
		LatchN:    latchN,
		Fixed:     g.rng.Float64() < g.gp.FixedLoopFrac,
	}
}

func (g *generator) genSwitch(fi, d int) Node {
	k := 4 + g.rng.IntN(9)
	cases := make([]Node, k)
	weights := make([]float64, k)
	for i := range cases {
		// Dispatch bodies are bulky (interpreter opcode handlers), so
		// case entries are far apart and dispatch jumps defeat
		// next-line prefetching.
		n := g.run(1) * 3
		cases[i] = &Straight{N: n}
		g.instrs += n
		weights[i] = 0.2 + g.rng.Float64()
	}
	// Make one or two cases dominant (hot opcodes / hot vtable slots).
	weights[g.rng.IntN(k)] += float64(k)
	preN := g.run(1)
	g.instrs += preN + k - 1
	g.sites += k // dispatch + (k-1) case exit jumps
	return &Switch{PreN: preN, Cases: cases, Weights: weights}
}

// calleePool returns candidate callees for optional (non-coverage) calls:
// only utility leaf functions, so repeated execution cannot multiply whole
// call subtrees. The slice is the generator's one buffer, refilled in order
// on every call because genIndirectCall shuffles it.
func (g *generator) calleePool(fi int) []int {
	if fi >= g.utilStart {
		return nil
	}
	g.pool = g.pool[:0]
	for c := g.utilStart; c < g.numFuncs; c++ {
		g.pool = append(g.pool, c)
	}
	return g.pool
}

func (g *generator) genExtraCall(fi int) Node {
	pool := g.calleePool(fi)
	if len(pool) == 0 {
		n := g.run(2)
		g.instrs += n
		return &Straight{N: n}
	}
	callee := pool[g.rng.IntN(len(pool))]
	pre := g.run(1)
	g.instrs += pre + 1
	g.sites++
	return &Call{PreN: pre, Callee: callee}
}

func (g *generator) genIndirectCall(fi int) Node {
	pool := g.calleePool(fi)
	if len(pool) < 2 {
		return g.genExtraCall(fi)
	}
	k := 2 + g.rng.IntN(3)
	if k > len(pool) {
		k = len(pool)
	}
	g.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	callees := append([]int(nil), pool[:k]...)
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 0.2 + g.rng.Float64()
	}
	weights[0] += 2 // dominant receiver type
	pre := g.run(1)
	g.instrs += pre + 1
	g.sites++
	return &IndirectCall{PreN: pre, Callees: callees, Weights: weights}
}
