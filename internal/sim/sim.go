// Package sim assembles complete simulation setups: it maps the paper's
// named front-end configurations (NL, FDP, Boomerang, Jukebox,
// Boomerang+JB, Confluence, Ignite, Ignite+TAGE, Confluence+Ignite, Ideal)
// onto an engine configuration plus the companion mechanisms each needs,
// and runs them under the lukewarm protocol.
package sim

import (
	"fmt"

	"ignite/internal/cache"
	"ignite/internal/cfg"
	"ignite/internal/check"
	"ignite/internal/engine"
	"ignite/internal/ignite"
	"ignite/internal/lukewarm"
	"ignite/internal/memsys"
	"ignite/internal/obs"
	"ignite/internal/prefetch"
	"ignite/internal/workload"
)

// Kind names a front-end configuration from the paper.
type Kind string

const (
	// KindNL is the baseline: aggressive next-line instruction prefetch
	// plus stride data prefetch (active in every other configuration).
	KindNL Kind = "nl"
	// KindFDP adds the decoupled fetch-directed prefetcher.
	KindFDP Kind = "fdp"
	// KindBoomerang adds Boomerang's BTB-fill to FDP.
	KindBoomerang Kind = "boomerang"
	// KindJukebox is NL plus the Jukebox L2 instruction-region
	// record/replay prefetcher.
	KindJukebox Kind = "jukebox"
	// KindBoomerangJB combines Boomerang and Jukebox.
	KindBoomerangJB Kind = "boomerang+jb"
	// KindConfluence is the temporal-streaming unified prefetcher.
	KindConfluence Kind = "confluence"
	// KindIgnite is Ignite on top of FDP (the paper's configuration).
	KindIgnite Kind = "ignite"
	// KindIgniteTAGE additionally preserves the TAGE tables across the
	// thrash — the upper-bound variant of Section 6.1.
	KindIgniteTAGE Kind = "ignite+tage"
	// KindConfluenceIgnite pairs Confluence with Ignite (Section 6.5).
	KindConfluenceIgnite Kind = "confluence+ignite"
	// KindFDPIgnite is a synonym configuration name used in Figure 12.
	KindFDPIgnite Kind = "fdp+ignite"
	// KindIdeal is the ideal front-end: perfect L1-I and BTB with a
	// pre-trained (preserved) CBP.
	KindIdeal Kind = "ideal"
)

// Kinds lists every configuration in presentation order.
func Kinds() []Kind {
	return []Kind{KindNL, KindFDP, KindBoomerang, KindJukebox, KindBoomerangJB,
		KindConfluence, KindIgnite, KindIgniteTAGE, KindConfluenceIgnite, KindIdeal}
}

// Tweaks adjusts a setup for the sensitivity studies.
type Tweaks struct {
	// Keep preserves extra structures across the thrash (Figs 4, 5).
	Keep lukewarm.Preserve
	// BIMPolicy overrides Ignite's bimodal initialization (Fig 11).
	// Nil means the configuration default.
	BIMPolicy *ignite.BIMPolicy
	// DoubleBuffer records while replaying (worst-case bandwidth,
	// Fig 10).
	DoubleBuffer bool
	// ThrottleThreshold overrides Ignite's replay throttle (0 = default).
	ThrottleThreshold int
	// MetadataBytes overrides Ignite's metadata budget (0 = default).
	MetadataBytes int
	// BTBEntries overrides the BTB capacity (0 = default 12K).
	BTBEntries int
	// L2KiB overrides the L2 capacity in KiB (0 = default 1280). The
	// hierarchy keeps its 20-way geometry, so the size must leave a
	// power-of-two set count: 320, 640, 1280, 2560, ... KiB.
	L2KiB int
}

// Caps on the sized tweaks, 16x their Table-2 sizes: each sizes a per-cell
// allocation, so a request past one is refused instead of exhausting memory.
const (
	maxBTBEntries    = 16 * 12288
	maxL2KiB         = 16 * (cache.DefaultL2Bytes >> 10)
	maxMetadataBytes = 16 * ignite.MaxMetadataBytes
)

// Validate reports tweaks NewWithProgram cannot build: negative values,
// sizes past their caps, or a BTB or L2 size whose geometry the engine
// rejects.
func (tw Tweaks) Validate() error {
	if tw.ThrottleThreshold < 0 || tw.MetadataBytes < 0 || tw.BTBEntries < 0 || tw.L2KiB < 0 {
		return fmt.Errorf("negative tweak values are not valid")
	}
	if tw.BTBEntries > maxBTBEntries || tw.L2KiB > maxL2KiB || tw.MetadataBytes > maxMetadataBytes {
		return fmt.Errorf("tweak sizes are capped at %d BTB entries, %d KiB of L2 and %d metadata bytes",
			maxBTBEntries, maxL2KiB, maxMetadataBytes)
	}
	return tw.engineConfig().Validate()
}

// engineConfig is the Table-2 engine configuration with the tweaked BTB and
// L2 sizes. The Table-2 L2 size has one spelling, L2SizeBytes 0, so an
// L2KiB of 1280 resolves like the default.
func (tw Tweaks) engineConfig() engine.Config {
	ec := engine.DefaultConfig()
	if tw.BTBEntries > 0 {
		ec.BTB.Entries = tw.BTBEntries
	}
	if tw.L2KiB > 0 && tw.L2KiB<<10 != cache.DefaultL2Bytes {
		ec.L2SizeBytes = tw.L2KiB << 10
	}
	return ec
}

// Plan is the effective configuration of a setup: everything its build
// reads besides the workload and its program, resolved from a Kind and its
// Tweaks. Requests that resolve to one Plan simulate identically, however
// they are spelled: a kind synonym (fdp+ignite), a tweak set to its
// Table-2 value, an Ignite tweak on a kind that runs no Ignite.
type Plan struct {
	// Engine is the engine configuration. Its Data and MaxCycles are zero:
	// the build takes the data profile from the workload and the cycle
	// watchdog from WithMaxCycles.
	Engine engine.Config
	// Ignite is the resolved Ignite configuration, nil when the kind runs
	// no Ignite.
	Ignite     *ignite.Config
	Jukebox    bool
	Confluence bool
	// Keep is what survives the thrash: the tweaked Keep plus what the
	// kind implies (ideal keeps the CBP, ignite+tage the TAGE tables).
	Keep lukewarm.Preserve
}

// Resolve returns the plan of kind under tw. It fails on an unknown kind
// and on tweaks that do not pass Tweaks.Validate.
func Resolve(kind Kind, tw Tweaks) (Plan, error) {
	if err := tw.Validate(); err != nil {
		return Plan{}, err
	}
	p := Plan{Engine: tw.engineConfig(), Keep: tw.Keep}
	p.Engine.Data = engine.DataConfig{}
	useIgnite := false
	switch kind {
	case KindNL:
	case KindFDP:
		p.Engine.FDPEnabled = true
	case KindBoomerang:
		p.Engine.FDPEnabled = true
		p.Engine.BoomerangEnabled = true
	case KindJukebox:
		p.Jukebox = true
	case KindBoomerangJB:
		p.Engine.FDPEnabled = true
		p.Engine.BoomerangEnabled = true
		p.Jukebox = true
	case KindConfluence:
		p.Confluence = true
	case KindIgnite, KindFDPIgnite:
		p.Engine.FDPEnabled = true
		useIgnite = true
	case KindIgniteTAGE:
		p.Engine.FDPEnabled = true
		useIgnite = true
		p.Keep.TAGE = true
	case KindConfluenceIgnite:
		p.Confluence = true
		useIgnite = true
	case KindIdeal:
		p.Engine.FDPEnabled = true
		p.Engine.PerfectL1I = true
		p.Engine.PerfectBTB = true
		p.Keep.BIM = true
		p.Keep.TAGE = true
	default:
		return Plan{}, fmt.Errorf("sim: unknown configuration %q", kind)
	}
	if useIgnite {
		ic := ignite.DefaultConfig()
		ic.DoubleBuffer = tw.DoubleBuffer
		if tw.BIMPolicy != nil {
			ic.Replay.Policy = *tw.BIMPolicy
		}
		if tw.ThrottleThreshold > 0 {
			ic.Replay.ThrottleThreshold = tw.ThrottleThreshold
		}
		if tw.MetadataBytes > 0 {
			ic.MetadataBytes = tw.MetadataBytes
		}
		p.Ignite = &ic
	}
	return p, nil
}

// Setup is a ready-to-run simulation of one (function, configuration) pair.
type Setup struct {
	Kind Kind
	Spec workload.Spec
	Prog *cfg.Program
	Eng  *engine.Engine

	Store      *memsys.Store
	Mechanisms []lukewarm.Mechanism
	Keep       lukewarm.Preserve

	Ignite     *ignite.Ignite
	Jukebox    *prefetch.Jukebox
	Confluence *prefetch.Confluence

	// TraceProvider, when set, supplies shared pre-generated invocation
	// traces to the protocol (see lukewarm.TraceProvider).
	TraceProvider lukewarm.TraceProvider

	// Checks is the runtime invariant auditor, non-nil when the setup was
	// built with WithChecks (or under IGNITE_CHECKS). It is already
	// installed as the engine's post-invocation hook; Run additionally
	// audits the aggregate result laws through it.
	Checks *check.Invariants
}

// New builds the setup for a workload under the named configuration.
// Behaviour is adjusted through functional options: for example
//
//	sim.New(spec, sim.KindIgnite, sim.WithTweaks(sim.Tweaks{BTBEntries: 6144, DoubleBuffer: true}))
func New(spec workload.Spec, kind Kind, opts ...Option) (*Setup, error) {
	prog, _, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return NewWithProgram(spec, prog, kind, opts...)
}

// NewWithProgram is New for a pre-built program (reuse across setups): it
// resolves kind and the WithTweaks tweaks into a Plan and builds it. It
// fails where Resolve does.
func NewWithProgram(spec workload.Spec, prog *cfg.Program, kind Kind, opts ...Option) (*Setup, error) {
	set := applyOptions(opts)
	plan, err := Resolve(kind, set.tw)
	if err != nil {
		return nil, err
	}
	s := plan.build(spec, prog, set)
	s.Kind = kind
	return s, nil
}

// Build assembles the setup p describes for spec's program. It reads only
// the plan, the spec and the program: a WithTweaks option has no effect,
// since the plan already holds its tweaks. The setup's Kind is unset.
func (p Plan) Build(spec workload.Spec, prog *cfg.Program, opts ...Option) *Setup {
	return p.build(spec, prog, applyOptions(opts))
}

func (p Plan) build(spec workload.Spec, prog *cfg.Program, set settings) *Setup {
	ec := p.Engine
	ec.Data = spec.Data
	ec.MaxCycles = set.maxCycles
	eng := engine.New(prog, ec)
	if set.tracer != nil {
		eng.SetTracer(set.tracer)
	}
	s := &Setup{
		Spec:  spec,
		Prog:  prog,
		Eng:   eng,
		Store: memsys.NewStore(),
		Keep:  p.Keep,
	}

	if p.Jukebox {
		s.Jukebox = prefetch.NewJukebox(prefetch.DefaultJukeboxConfig(), eng, s.Store, spec.Name)
		eng.AddCompanion(s.Jukebox)
		s.Mechanisms = append(s.Mechanisms, s.Jukebox)
	}
	if p.Confluence {
		s.Confluence = prefetch.NewConfluence(prefetch.DefaultConfluenceConfig(), eng)
		eng.AddCompanion(s.Confluence)
		s.Mechanisms = append(s.Mechanisms, s.Confluence)
	}
	if p.Ignite != nil {
		s.Ignite = ignite.New(*p.Ignite, eng, s.Store, spec.Name)
		s.Ignite.Install()
		s.Mechanisms = append(s.Mechanisms, igniteMechanism{s.Ignite})
	}
	if set.checks {
		s.Checks = check.New(eng)
		if s.Ignite != nil {
			s.Checks.AttachIgnite(s.Ignite)
		}
		eng.SetInvocationCheck(s.Checks.CheckInvocation)
	}
	return s
}

// igniteMechanism adapts *ignite.Ignite to the lukewarm.Mechanism interface.
type igniteMechanism struct{ ig *ignite.Ignite }

func (m igniteMechanism) StartRecord() { m.ig.StartRecord() }
func (m igniteMechanism) StopRecord()  { m.ig.StopRecord() }
func (m igniteMechanism) ArmReplay()   { m.ig.ArmReplay() }

// RegisterMetrics registers the setup's engine metrics plus those of every
// attached mechanism into reg. Labels carry only component dimensions: a
// registry is scoped to one (workload, config) cell, whose identity the
// caller tracks (per-cell snapshots are keyed by cell in the exported
// documents).
func (s *Setup) RegisterMetrics(reg *obs.Registry) {
	var labels obs.Labels
	s.Eng.RegisterMetrics(reg, labels)
	if s.Ignite != nil {
		s.Ignite.RegisterMetrics(reg, labels)
	}
	if s.Jukebox != nil {
		s.Jukebox.RegisterMetrics(reg, labels)
	}
	if s.Confluence != nil {
		s.Confluence.RegisterMetrics(reg, labels)
	}
}

// Run executes the lukewarm protocol in the given mode. With checks
// enabled, per-invocation invariants are audited inside the protocol and
// the aggregate result laws afterwards.
func (s *Setup) Run(mode lukewarm.Mode) (*lukewarm.Result, error) {
	res, err := lukewarm.Run(s.Eng, lukewarm.Options{
		MaxInstr:   s.Spec.MaxInstr(),
		Mode:       mode,
		Keep:       s.Keep,
		Mechanisms: s.Mechanisms,
		// The base is computed, so mark it explicitly set: a workload
		// with Gen.Seed 0 must not be silently rebased onto
		// lukewarm.DefaultSeedBase.
		SeedBase:    s.Spec.Gen.Seed * 1000,
		SeedBaseSet: true,
		Traces:      s.TraceProvider,
	})
	if err != nil {
		return nil, err
	}
	if s.Checks != nil {
		if cerr := check.VerifyResult(res); cerr != nil {
			return nil, fmt.Errorf("sim: result invariant check (%s/%s, %s): %w",
				s.Spec.Name, s.Kind, mode, cerr)
		}
	}
	return res, nil
}
