// Package population generalizes the fixed Table-1 workload catalog into a
// parameterized, PCG-seeded population sampler: thousands of synthetic
// serverless functions drawn from the paper's Figure-2 characterization
// distributions, each yielding a standard workload.Spec so every existing
// engine, experiment, and serving path runs unmodified.
//
// The standard flavor fits per-runtime lognormal marginals (instruction
// working set, branch working set, dynamic instruction count, data
// footprint) from the 20 Table-1 specs and samples inside the Figure-2
// bounds. Three additional flavors extend the characterization beyond the
// paper's corpus:
//
//   - tiny: hot trigger-style functions far below the Figure-2 floor, with
//     high arrival rates — the functions keep-alive favors;
//   - huge: cold ML-inference-style functions above the Figure-2 ceiling,
//     whose branch working sets overflow Ignite's 120 KiB metadata cap;
//   - chain: workflow compositions (sequential chains and fan-outs) whose
//     aggregate spec sums 2-4 standard-ish stages.
//
// Sampling is a single serial pass over one PCG stream: the same Params
// always produce byte-identical functions, independent of GOMAXPROCS or
// any scheduler parallelism around the caller.
package population

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"ignite/internal/workload"
)

// Flavor classifies a sampled function.
type Flavor uint8

const (
	Standard Flavor = iota
	Tiny
	Huge
	Chain
)

func (f Flavor) String() string {
	switch f {
	case Standard:
		return "standard"
	case Tiny:
		return "tiny"
	case Huge:
		return "huge"
	case Chain:
		return "chain"
	default:
		return "?"
	}
}

// prefix is the flavor's function-name prefix; sampled names never collide
// with the Table-1 catalog's.
func (f Flavor) prefix() string {
	switch f {
	case Tiny:
		return "Tny"
	case Huge:
		return "Hug"
	case Chain:
		return "Chn"
	default:
		return "Std"
	}
}

// Mix is the flavor composition of a population, as fractions that Sample
// normalizes (so {7, 1.5, 1, 0.5} and {0.70, 0.15, 0.10, 0.05} agree).
type Mix struct {
	Standard float64
	Tiny     float64
	Huge     float64
	Chain    float64
}

// DefaultMix is the fleet default: mostly in-characterization functions
// with meaningful tiny-hot and huge-cold tails.
func DefaultMix() Mix { return Mix{Standard: 0.70, Tiny: 0.15, Huge: 0.10, Chain: 0.05} }

func (m Mix) total() float64 { return m.Standard + m.Tiny + m.Huge + m.Chain }

// Params configures one population draw.
type Params struct {
	// Seed drives the single PCG stream behind every draw. Same seed,
	// same population, byte for byte.
	Seed uint64
	// N is the population size.
	N int
	// Mix is the flavor composition (zero value = DefaultMix).
	Mix Mix
	// RateScale multiplies every sampled arrival rate (0 = 1.0): the knob
	// that turns the same population into a heavier or lighter node.
	RateScale float64
	// TargetInstr, when > 0, overrides every sampled function's dynamic
	// instruction budget — the fleet analogue of the CLIs' -target-instr
	// smoke knob. Working sets are left untouched.
	TargetInstr uint64
}

func (p Params) withDefaults() (Params, error) {
	if p.N <= 0 {
		return p, fmt.Errorf("population: N must be positive (got %d)", p.N)
	}
	if p.Mix == (Mix{}) {
		p.Mix = DefaultMix()
	}
	if p.Mix.Standard < 0 || p.Mix.Tiny < 0 || p.Mix.Huge < 0 || p.Mix.Chain < 0 || p.Mix.total() <= 0 {
		return p, fmt.Errorf("population: invalid flavor mix %+v", p.Mix)
	}
	if p.RateScale == 0 {
		p.RateScale = 1
	}
	if p.RateScale < 0 {
		return p, fmt.Errorf("population: negative RateScale %g", p.RateScale)
	}
	return p, nil
}

// Function is one sampled tenant function: a standard workload.Spec
// (embedded, so it drops into sim.New, the cell cache, the serving catalog)
// plus the fleet-level attributes the budget market consumes.
type Function struct {
	workload.Spec
	Flavor Flavor
	// CodeKiB and BranchSites are the function's measured Figure-2
	// coordinates (the working sets the spec was calibrated to), kept
	// explicit so the market's cost model never has to invert the
	// generator calibration.
	CodeKiB     int
	BranchSites int
	// RatePerSec is the function's mean offered arrival rate — the
	// popularity axis of the population, consumed by the budget market's
	// schedules and benefit scores.
	RatePerSec float64
	// Stages is the number of composed stages (0 for simple functions,
	// 2-4 for chain-flavor workflow compositions).
	Stages int
	// FanOut marks a chain composition whose stages trigger in parallel
	// rather than sequentially. The aggregate working set and instruction
	// count are identical; the distinction is kept for latency-level
	// studies layered on top.
	FanOut bool
}

// marginal is one fitted lognormal marginal: mean and stddev of log(x).
type marginal struct{ mu, sigma float64 }

func (m marginal) draw(rng *rand.Rand) float64 {
	return math.Exp(m.mu + m.sigma*rng.NormFloat64())
}

func fitLog(xs []float64) marginal {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	mu := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := math.Log(x) - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(xs)))
	if sigma < 0.05 {
		sigma = 0.05 // keep a minimum spread even for tight marginals
	}
	return marginal{mu: mu, sigma: sigma}
}

// langFit holds the per-runtime marginals fitted from the Table-1 catalog:
// instruction working set (KiB), branch-sites-per-code-KiB ratio,
// instructions-per-code-KiB ratio, data footprint (KiB), and the mean data
// mix knobs.
type langFit struct {
	code      marginal
	siteRatio marginal // BranchSites / CodeKiB
	instRatio marginal // TargetInstr / CodeKiB
	footprint marginal // data footprint KiB
	memOp     float64
	hot       float64
	stride    float64
}

var fitOnce sync.Once
var fits map[workload.Lang]*langFit

// fit computes the per-language marginals from workload.All, once.
func fit() map[workload.Lang]*langFit {
	fitOnce.Do(func() {
		type acc struct {
			code, siteR, instR, foot []float64
			memOp, hot, stride       []float64
		}
		accs := map[workload.Lang]*acc{}
		for _, s := range workload.All() {
			a := accs[s.Lang]
			if a == nil {
				a = &acc{}
				accs[s.Lang] = a
			}
			codeKiB, sites := s.Fig2Coords()
			a.code = append(a.code, float64(codeKiB))
			a.siteR = append(a.siteR, float64(sites)/float64(codeKiB))
			a.instR = append(a.instR, float64(s.TargetInstr)/float64(codeKiB))
			a.foot = append(a.foot, float64(s.Data.FootprintBytes)/1024)
			a.memOp = append(a.memOp, s.Data.MemOpFrac)
			a.hot = append(a.hot, s.Data.HotFrac)
			a.stride = append(a.stride, s.Data.StrideFrac)
		}
		fits = make(map[workload.Lang]*langFit, len(accs))
		for lang, a := range accs {
			fits[lang] = &langFit{
				code:      fitLog(a.code),
				siteRatio: fitLog(a.siteR),
				instRatio: fitLog(a.instR),
				footprint: fitLog(a.foot),
				memOp:     mean(a.memOp),
				hot:       mean(a.hot),
				stride:    mean(a.stride),
			}
		}
	})
	return fits
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func clampF(x, lo, hi float64) float64 { return math.Min(math.Max(x, lo), hi) }

// langWeights follows the Table-1 composition: 5 Python, 5 NodeJS, 10 Go.
var langWeights = []struct {
	lang workload.Lang
	w    float64
}{
	{workload.Python, 0.25},
	{workload.NodeJS, 0.25},
	{workload.Go, 0.50},
}

func drawLang(rng *rand.Rand) workload.Lang {
	u := rng.Float64()
	for _, lw := range langWeights {
		if u < lw.w {
			return lw.lang
		}
		u -= lw.w
	}
	return workload.Go
}

// rate draws a lognormal arrival rate around the flavor's popularity level:
// tiny functions are hot triggers, huge functions are rare batch-style
// invocations, the rest sit in between.
func drawRate(rng *rand.Rand, f Flavor) float64 {
	var mu, sigma float64
	switch f {
	case Tiny:
		mu, sigma = math.Log(8.0), 0.9
	case Huge:
		mu, sigma = math.Log(0.05), 0.7
	case Chain:
		mu, sigma = math.Log(0.4), 0.8
	default:
		mu, sigma = math.Log(0.8), 1.0
	}
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// stage holds one drawn function body in measured Figure-2 coordinates.
type stage struct {
	codeKiB, sites     int
	instrs             uint64
	footKiB            int
	memOp, hot, stride float64
}

// drawStandard samples one in-characterization body for lang, clamped to
// the Figure-2 bounds.
func drawStandard(rng *rand.Rand, lang workload.Lang) stage {
	lf := fit()[lang]
	code := clampF(lf.code.draw(rng), workload.Fig2MinCodeKiB, workload.Fig2MaxCodeKiB)
	sites := clampF(code*lf.siteRatio.draw(rng), workload.Fig2MinBTBEntries, workload.Fig2MaxBTBEntries)
	instrs := code * lf.instRatio.draw(rng)
	foot := clampF(lf.footprint.draw(rng), 128, 2048)
	return stage{
		codeKiB: int(code),
		sites:   int(sites),
		instrs:  uint64(instrs),
		footKiB: int(foot),
		memOp:   clampF(lf.memOp+0.02*rng.NormFloat64(), 0.20, 0.40),
		hot:     clampF(lf.hot+0.02*rng.NormFloat64(), 0.75, 0.95),
		stride:  clampF(lf.stride+0.05*rng.NormFloat64(), 0.15, 0.55),
	}
}

// drawTiny samples a hot trigger-style body far below the Figure-2 floor.
func drawTiny(rng *rand.Rand, lang workload.Lang) stage {
	lf := fit()[lang]
	code := clampF(marginal{mu: math.Log(72), sigma: 0.5}.draw(rng), 24, 160)
	sites := clampF(code*lf.siteRatio.draw(rng), 500, 4000)
	instrs := clampF(code*lf.instRatio.draw(rng), 30_000, 250_000)
	return stage{
		codeKiB: int(code),
		sites:   int(sites),
		instrs:  uint64(instrs),
		footKiB: int(clampF(marginal{mu: math.Log(96), sigma: 0.4}.draw(rng), 48, 256)),
		memOp:   clampF(lf.memOp-0.04+0.02*rng.NormFloat64(), 0.18, 0.32),
		hot:     clampF(lf.hot+0.05+0.02*rng.NormFloat64(), 0.85, 0.97),
		stride:  clampF(lf.stride+0.05*rng.NormFloat64(), 0.15, 0.55),
	}
}

// drawHuge samples a cold ML-inference-style body above the Figure-2
// ceiling; its branch working set overflows the 120 KiB metadata cap,
// which is exactly the regime the budget market studies.
func drawHuge(rng *rand.Rand, lang workload.Lang) stage {
	lf := fit()[lang]
	code := clampF(marginal{mu: math.Log(1100), sigma: 0.35}.draw(rng), 700, 2200)
	sites := clampF(code*lf.siteRatio.draw(rng)*1.1, 15_000, 48_000)
	instrs := clampF(code*lf.instRatio.draw(rng)*1.6, 1_500_000, 6_000_000)
	return stage{
		codeKiB: int(code),
		sites:   int(sites),
		instrs:  uint64(instrs),
		footKiB: int(clampF(marginal{mu: math.Log(12 << 10), sigma: 0.6}.draw(rng), 4<<10, 48<<10)),
		memOp:   clampF(lf.memOp+0.03+0.02*rng.NormFloat64(), 0.25, 0.42),
		hot:     clampF(lf.hot-0.10+0.03*rng.NormFloat64(), 0.60, 0.85),
		stride:  clampF(lf.stride+0.10+0.05*rng.NormFloat64(), 0.25, 0.65),
	}
}

func (s stage) add(o stage) stage {
	s.codeKiB += o.codeKiB
	s.sites += o.sites
	s.instrs += o.instrs
	s.footKiB += o.footKiB
	s.memOp = (s.memOp + o.memOp) / 2
	s.hot = (s.hot + o.hot) / 2
	s.stride = (s.stride + o.stride) / 2
	return s
}

func drawFlavor(rng *rand.Rand, m Mix) Flavor {
	u := rng.Float64() * m.total()
	switch {
	case u < m.Standard:
		return Standard
	case u < m.Standard+m.Tiny:
		return Tiny
	case u < m.Standard+m.Tiny+m.Huge:
		return Huge
	default:
		return Chain
	}
}

// Sample draws a population. The draw is one serial pass over a single
// PCG(seed) stream, so results are byte-identical for equal Params
// regardless of the caller's parallelism.
func Sample(p Params) ([]Function, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(p.Seed, 0x666c656574)) // "fleet"
	out := make([]Function, 0, p.N)
	for i := 0; i < p.N; i++ {
		flavor := drawFlavor(rng, p.Mix)
		lang := drawLang(rng)
		var body stage
		stages, fanOut := 0, false
		switch flavor {
		case Tiny:
			body = drawTiny(rng, lang)
		case Huge:
			body = drawHuge(rng, lang)
		case Chain:
			stages = 2 + int(rng.Uint64N(3)) // 2-4 stages
			fanOut = rng.Float64() < 0.5
			body = drawStandard(rng, lang)
			for s := 1; s < stages; s++ {
				body = body.add(drawStandard(rng, lang))
			}
		default:
			body = drawStandard(rng, lang)
		}
		rate := drawRate(rng, flavor) * p.RateScale
		seed := rng.Uint64()

		name := fmt.Sprintf("%s%04d-%s", flavor.prefix(), i, lang.Suffix())
		full := fmt.Sprintf("Fleet %s function #%d (%s", flavor, i, lang)
		if flavor == Chain {
			kind := "chain"
			if fanOut {
				kind = "fan-out"
			}
			full = fmt.Sprintf("%s, %d-stage %s", full, stages, kind)
		}
		full += ")"

		instrs := body.instrs
		if p.TargetInstr > 0 {
			instrs = p.TargetInstr
		}
		spec := workload.New(name, full, lang, seed, body.codeKiB, body.sites,
			instrs, workload.DataProfile(body.footKiB, body.memOp, body.hot, body.stride))
		out = append(out, Function{
			Spec:        spec,
			Flavor:      flavor,
			CodeKiB:     body.codeKiB,
			BranchSites: body.sites,
			RatePerSec:  rate,
			Stages:      stages,
			FanOut:      fanOut,
		})
	}
	return out, nil
}

// Specs projects the population onto its workload.Spec slice — the form
// every existing experiments/serve/engine entry point consumes.
func Specs(fns []Function) []workload.Spec {
	specs := make([]workload.Spec, len(fns))
	for i, f := range fns {
		specs[i] = f.Spec
	}
	return specs
}

// ByName returns the named function of a population.
func ByName(fns []Function, name string) (Function, error) {
	for _, f := range fns {
		if f.Name == name {
			return f, nil
		}
	}
	return Function{}, fmt.Errorf("population: unknown function %q", name)
}
