package sim

import (
	"ignite/internal/check"
	"ignite/internal/obs"
)

// Option configures a Setup under construction: callers state only what
// they change.
type Option func(*settings)

// settings is the resolved option set.
type settings struct {
	tw        Tweaks
	tracer    obs.Tracer
	checks    bool
	maxCycles uint64
}

func applyOptions(opts []Option) settings {
	// The IGNITE_CHECKS environment gate turns on invariant checking for
	// every setup built while it is set (the CI smoke path); WithChecks
	// enables it per setup.
	s := settings{checks: check.EnvEnabled()}
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	return s
}

// WithChecks enables runtime invariant checking: after every invocation the
// engine's state is audited against the conservation laws in internal/check,
// and a violation aborts the run with a structured check.Violation error.
func WithChecks() Option {
	return func(s *settings) { s.checks = true }
}

// WithTracer installs an obs.Tracer on the setup's engine, receiving
// invocation and replay lifecycle events.
func WithTracer(t obs.Tracer) Option {
	return func(s *settings) { s.tracer = t }
}

// WithMaxCycles arms the engine's per-invocation cycle-budget watchdog
// (0 = unlimited): an invocation that exceeds the budget aborts with
// engine.ErrCycleBudget instead of hanging its scheduler worker. The
// watchdog can only abort a run, never alter a completing one.
func WithMaxCycles(n uint64) Option {
	return func(s *settings) { s.maxCycles = n }
}

// WithTweaks sets the setup's sensitivity-study knobs (Figs 4, 5, 10, 11
// and the ablations). It assigns the whole Tweaks value, so the zero value
// of a field means the configuration default and the last WithTweaks wins.
func WithTweaks(tw Tweaks) Option {
	return func(s *settings) { s.tw = tw }
}
