package cfg

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refWalker is the recursive AST walker that Program.Walk's walk code
// replaced, kept as the walker's reference: it executes the bodies a
// program was lowered from, through the block IDs lowering recorded in
// their nodes.
type refWalker struct {
	p          *Program
	bodies     []Node // each function's body, by function index
	rng        *rand.Rand
	emit       func(Step) bool
	opt        WalkOptions
	res        WalkResult
	depth      int
	err        error
	execCounts []uint32
}

// refWalk walks function entry of p, lowered from bodies, as Program.Walk
// did before the walk code existed.
func refWalk(p *Program, bodies []Node, entry int, opt WalkOptions, emit func(Step) bool) (WalkResult, error) {
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = 128
	}
	w := refWalker{
		p: p, bodies: bodies, emit: emit, opt: opt,
		rng:        rand.New(rand.NewPCG(opt.Seed, opt.Seed^0x9e3779b97f4a7c15)),
		execCounts: make([]uint32, len(p.Blocks)),
	}
	w.walkFunc(entry)
	return w.res, w.err
}

func (w *refWalker) step(blk BlockID, taken bool) bool {
	if !w.emit(NewStep(blk, taken)) {
		w.res.Truncated = true
		return false
	}
	w.res.Steps++
	w.res.Instrs += uint64(w.p.Blocks[blk].NumInstr)
	if w.opt.MaxInstr > 0 && w.res.Instrs >= w.opt.MaxInstr {
		w.res.Truncated = true
		return false
	}
	return true
}

func (w *refWalker) walkFunc(fi int) bool {
	if w.depth >= w.opt.MaxDepth {
		w.err = ErrDepth
		return false
	}
	w.depth++
	defer func() { w.depth-- }()
	if !w.walkNode(w.bodies[fi]) {
		return false
	}
	return w.step(w.p.Funcs[fi].Ret, true)
}

func (w *refWalker) walkNode(n Node) bool {
	switch v := n.(type) {
	case *Straight:
		return w.step(v.blk, false)
	case *Seq:
		for _, c := range v.Nodes {
			if !w.walkNode(c) {
				return false
			}
		}
		return true
	case *If:
		var thenTaken bool
		if v.Period >= 2 {
			cnt := w.execCounts[v.condBlk]
			w.execCounts[v.condBlk]++
			thenTaken = cnt%uint32(v.Period) != 0
		} else {
			thenTaken = w.rng.Float64() < v.ThenBias
		}
		if !w.step(v.condBlk, !thenTaken) {
			return false
		}
		if thenTaken {
			if !w.walkNode(v.Then) {
				return false
			}
			if v.jmpBlk != NoBlock {
				return w.step(v.jmpBlk, true)
			}
			return true
		}
		if v.Else != nil {
			return w.walkNode(v.Else)
		}
		return true
	case *Loop:
		var trips int
		if v.Fixed {
			trips = int(v.MeanTrips + 0.5)
			if trips < 1 {
				trips = 1
			}
		} else {
			trips = w.sampleTrips(v.MeanTrips)
		}
		for i := 0; i < trips; i++ {
			if !w.walkNode(v.Body) {
				return false
			}
			if !w.step(v.latchBlk, i < trips-1) {
				return false
			}
		}
		return true
	case *Call:
		if !w.step(v.blk, true) {
			return false
		}
		return w.walkFunc(v.Callee)
	case *IndirectCall:
		callee := v.Callees[w.sampleIndex(v.Weights, len(v.Callees))]
		if !w.step(v.blk, true) {
			return false
		}
		return w.walkFunc(callee)
	case *Switch:
		ci := w.sampleIndex(v.Weights, len(v.Cases))
		if !w.step(v.dispatchBlk, true) {
			return false
		}
		if !w.walkNode(v.Cases[ci]) {
			return false
		}
		if ci < len(v.Cases)-1 {
			return w.step(v.caseJmps[ci], true)
		}
		return true
	default:
		w.err = fmt.Errorf("cfg: unknown node type %T", n)
		return false
	}
}

func (w *refWalker) sampleTrips(mean float64) int {
	if mean <= 1 {
		return 1
	}
	t := int(mean*(0.75+0.5*w.rng.Float64()) + 0.5)
	if t < 1 {
		t = 1
	}
	return t
}

func (w *refWalker) sampleIndex(weights []float64, n int) int {
	if n <= 1 {
		return 0
	}
	if len(weights) != n {
		return w.rng.IntN(n)
	}
	var total float64
	for _, wt := range weights {
		total += wt
	}
	if total <= 0 {
		return w.rng.IntN(n)
	}
	x := w.rng.Float64() * total
	for i, wt := range weights {
		x -= wt
		if x < 0 {
			return i
		}
	}
	return n - 1
}

// astGen draws random hand-built ASTs and counts the features it drew.
type astGen struct {
	rng       *rand.Rand
	nf        int  // functions in the program
	recursive bool // calls may target any function, the caller included
	seen      map[string]int
}

func (g *astGen) n() int { return 1 + g.rng.IntN(6) }

// weights returns nil, a right-length, a wrong-length or an all-zero
// weight vector for an n-way choice.
func (g *astGen) weights(what string, n int) []float64 {
	m := n
	switch g.rng.IntN(4) {
	case 0:
		g.seen[what+" nil weights"]++
		return nil
	case 1:
		g.seen[what+" wrong-length weights"]++
		m = n + 1
		if n > 1 && g.rng.IntN(2) == 0 {
			m = n - 1
		}
	case 2:
		g.seen[what+" zero weights"]++
		return make([]float64, n)
	}
	ws := make([]float64, m)
	for i := range ws {
		ws[i] = g.rng.Float64()
	}
	return ws
}

// callee picks a function fi may call: a later one, so calls form a DAG,
// or any one in a recursive program. ok is false when there is none.
func (g *astGen) callee(fi int) (int, bool) {
	if g.recursive {
		return g.rng.IntN(g.nf), true
	}
	if fi+1 >= g.nf {
		return 0, false
	}
	return fi + 1 + g.rng.IntN(g.nf-fi-1), true
}

func (g *astGen) node(fi, depth int) Node {
	k := g.rng.IntN(7)
	if depth >= 3 {
		k = 0
	}
	switch k {
	case 1:
		var nodes []Node
		for range g.rng.IntN(4) {
			nodes = append(nodes, g.node(fi, depth+1))
		}
		g.seen["Seq"]++
		return &Seq{Nodes: nodes}
	case 2:
		f := &If{CondN: g.n(), Then: g.node(fi, depth+1)}
		switch g.rng.IntN(4) {
		case 0:
			f.Period = 2 + g.rng.IntN(4)
		case 1:
			f.ThenBias = float64(g.rng.IntN(2)) // never or always
		default:
			f.ThenBias = g.rng.Float64()
		}
		if g.rng.IntN(2) == 0 {
			f.Else = g.node(fi, depth+1)
		}
		switch {
		case f.Else == nil:
			g.seen["If without Else"]++
		case f.Period >= 2:
			g.seen["periodic If with Else"]++
		default:
			g.seen["If with Else"]++
		}
		return f
	case 3:
		l := &Loop{Body: g.node(fi, depth+1), LatchN: g.n(), Fixed: g.rng.IntN(2) == 0,
			MeanTrips: 0.2 + 4*g.rng.Float64()}
		if _, ok := l.Body.(*Seq); ok {
			g.seen["Seq in a Loop body"]++
		}
		if l.Fixed {
			g.seen["Fixed Loop"]++
		}
		if l.MeanTrips < 1 {
			g.seen["Loop with MeanTrips < 1"]++
		}
		g.seen["Loop"]++
		return l
	case 4:
		callee, ok := g.callee(fi)
		if !ok {
			break
		}
		g.seen["Call"]++
		return &Call{PreN: g.rng.IntN(3), Callee: callee}
	case 5:
		var callees []int
		for range 1 + g.rng.IntN(3) {
			c, ok := g.callee(fi)
			if !ok {
				break
			}
			callees = append(callees, c)
		}
		if len(callees) == 0 {
			break
		}
		g.seen["IndirectCall"]++
		return &IndirectCall{PreN: g.rng.IntN(3), Callees: callees, Weights: g.weights("IndirectCall", len(callees))}
	case 6:
		cases := make([]Node, 1+g.rng.IntN(4))
		for i := range cases {
			cases[i] = g.node(fi, depth+1)
			if _, ok := cases[i].(*Seq); ok {
				g.seen["Seq in a Switch case"]++
			}
		}
		g.seen["Switch"]++
		return &Switch{PreN: g.n(), Cases: cases, Weights: g.weights("Switch", len(cases))}
	}
	g.seen["Straight"]++
	return &Straight{N: g.n()}
}

// program lowers nf random bodies into a finalized program and returns it
// with the bodies.
func (g *astGen) program(t *testing.T) (*Program, []Node) {
	p := NewProgram("random")
	p.LayoutSeed = g.rng.Uint64()
	bodies := make([]Node, g.nf)
	for fi := range bodies {
		bodies[fi] = g.node(fi, 0)
		p.AddFunction("f", bodies[fi], g.n())
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p, bodies
}

// TestWalkMatchesASTReference: over seeded random ASTs covering every node
// kind and corner, Program.Walk emits the same Step stream and returns the
// same WalkResult and error as the AST walker it replaced, for full walks,
// MaxInstr truncation, an emit that stops at the k-th step for every k, and
// call depths past MaxDepth.
func TestWalkMatchesASTReference(t *testing.T) {
	g := &astGen{rng: rand.New(rand.NewPCG(19, 0x5eed)), seen: map[string]int{}}
	outcomes := map[string]int{}
	var scratch WalkScratch
	check := func(p *Program, bodies []Node, opt WalkOptions, stopAt int) []Step {
		t.Helper()
		walk := func(walker func(func(Step) bool) (WalkResult, error)) ([]Step, WalkResult, error) {
			var steps []Step
			res, err := walker(func(s Step) bool {
				steps = append(steps, s)
				return len(steps) != stopAt
			})
			return steps, res, err
		}
		want, wantRes, wantErr := walk(func(emit func(Step) bool) (WalkResult, error) {
			return refWalk(p, bodies, 0, opt, emit)
		})
		if opt.Seed%2 == 0 {
			opt.Scratch = &scratch
		}
		got, gotRes, gotErr := walk(func(emit func(Step) bool) (WalkResult, error) {
			return p.Walk(0, opt, emit)
		})
		if !slices.Equal(got, want) || gotRes != wantRes || gotErr != wantErr {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("opt %+v stop at %d: walk diverges from the AST reference at step %d of %d/%d: result %+v err %v, want %+v err %v",
				opt, stopAt, i, len(got), len(want), gotRes, gotErr, wantRes, wantErr)
		}
		switch {
		case wantErr == ErrDepth:
			outcomes["ErrDepth"]++
		case stopAt > 0 && len(want) == stopAt:
			outcomes["emit stop"]++
		case wantRes.Truncated:
			outcomes["MaxInstr truncation"]++
		default:
			outcomes["complete"]++
		}
		return want
	}
	for prog := 0; prog < 300; prog++ {
		g.nf, g.recursive = 1+g.rng.IntN(5), prog%5 == 4
		p, bodies := g.program(t)
		for seed := uint64(0); seed < 4; seed++ {
			full := check(p, bodies, WalkOptions{Seed: seed, MaxInstr: 20_000}, 0)
			check(p, bodies, WalkOptions{Seed: seed, MaxInstr: 1 + g.rng.Uint64N(uint64(4*len(full)+1))}, 0)
			check(p, bodies, WalkOptions{Seed: seed, MaxInstr: 20_000, MaxDepth: 1 + g.rng.IntN(3)}, 0)
			for k := 1; k <= len(full); k += 1 + len(full)/100 {
				check(p, bodies, WalkOptions{Seed: seed, MaxInstr: 20_000}, k)
			}
		}
	}
	for _, feature := range []string{
		"Straight", "Seq", "If without Else", "If with Else", "periodic If with Else",
		"Loop", "Fixed Loop", "Loop with MeanTrips < 1", "Call", "IndirectCall", "Switch",
		"Seq in a Switch case", "Seq in a Loop body",
		"Switch nil weights", "Switch wrong-length weights", "Switch zero weights",
		"IndirectCall nil weights", "IndirectCall wrong-length weights", "IndirectCall zero weights",
	} {
		if g.seen[feature] == 0 {
			t.Errorf("random ASTs never drew: %s", feature)
		}
	}
	for _, o := range []string{"complete", "MaxInstr truncation", "emit stop", "ErrDepth"} {
		if outcomes[o] == 0 {
			t.Errorf("no walk ended with: %s", o)
		}
	}
	t.Logf("features %v, outcomes %v", g.seen, outcomes)
}
