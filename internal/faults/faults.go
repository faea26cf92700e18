// Package faults is a deterministic, seedable fault-injection registry for
// the experiment pipeline. A Plan holds rules keyed by (experiment ID ×
// workload × config); the runner fires the plan at well-defined sites and
// the injected faults — panics, transient errors, slow cells — exercise
// exactly the recovery paths the scheduler claims to have: per-cell
// isolation, retry with backoff, and per-cell deadlines.
//
// Plans come from three places: programmatically (New/Add), from the
// IGNITE_FAULTS environment variable (FromEnv), or the canonical Smoke plan
// the chaos suite and CI use. Injection is deterministic: a rule either
// matches a site or it does not, probabilistic rules gate on a seeded hash
// of the site (never on math/rand), and per-site trip counts make "fail
// once, then succeed" reproducible — the property the retry-determinism
// tests rely on.
package faults

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind names an injectable fault class.
type Kind string

const (
	// KindPanic panics at the injection site — exercises per-cell
	// recover() isolation.
	KindPanic Kind = "panic"
	// KindTransient returns an error classified transient — exercises
	// retry with backoff. The fault clears after its trip count, so the
	// retried attempt succeeds.
	KindTransient Kind = "transient"
	// KindSlow delays the cell (honoring context cancellation) —
	// exercises per-cell deadlines.
	KindSlow Kind = "slow"

	// Network fault kinds fire at the transport boundary (see Transport and
	// WrapListener in net.go), never at cell sites: their rule sites are
	// net/<host>/<endpoint> instead of exp/workload/config.

	// KindConnReset fails the connection as if the peer reset it —
	// exercises the coordinator's failover and quarantine.
	KindConnReset Kind = "conn-reset"
	// KindSlowNet delays the request by the rule's delay before letting it
	// through — exercises probe timeouts.
	KindSlowNet Kind = "slow-net"
	// KindTruncatedBody cuts the response body short mid-stream —
	// exercises the coordinator's read-error retry path.
	KindTruncatedBody Kind = "truncated-body"
	// KindGarbageJSON replaces the response body with non-JSON bytes —
	// exercises the decode/CRC rejection path.
	KindGarbageJSON Kind = "garbage-json"
)

// Site identifies one injection point: a (workload, config) cell inside an
// experiment. Rules match an empty field with "" or the "*" wildcard.
type Site struct {
	Experiment string
	Workload   string
	Config     string
}

func (s Site) String() string {
	return s.Experiment + "/" + s.Workload + "/" + s.Config
}

// TransientError is the injected transient failure. The scheduler's retry
// policy recognizes it through the Transient method.
type TransientError struct {
	Site Site
	Trip int // which firing this was (1-based)
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("faults: injected transient error at %s (trip %d)", e.Site, e.Trip)
}

// Transient marks the error retryable.
func (e *TransientError) Transient() bool { return true }

// PanicError wraps a recovered panic value as an error, preserving the
// stack of the panicking goroutine for the failure report.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// IsTransient reports whether err is classified retryable: any error in the
// chain exposing Transient() bool that returns true.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(interface{ Transient() bool }); ok && t.Transient() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// Backoff returns the capped exponential delay before retry number attempt
// (1-based): first, doubling per attempt, never above limit. It doubles
// only until it reaches limit, so no attempt number can overflow it.
func Backoff(first, limit time.Duration, attempt int) time.Duration {
	d := first
	for n := 1; n < attempt && d > 0 && d < limit; n++ {
		d *= 2
	}
	return min(d, limit)
}

// rule is one armed fault. Pattern fields use "*" as a wildcard.
type rule struct {
	kind  Kind
	exp   string
	wl    string
	cfg   string
	trips int           // how many times the rule fires per site (default 1)
	delay time.Duration // KindSlow only
	rate  float64       // 0/1 = always when matched; else seeded-hash gate
}

func (r rule) matches(s Site) bool {
	match := func(pat, v string) bool { return pat == "*" || pat == v }
	return match(r.exp, s.Experiment) && match(r.wl, s.Workload) && match(r.cfg, s.Config)
}

// Plan is a set of armed fault rules plus the per-site trip bookkeeping.
// It is safe for concurrent use: cells fire the plan from scheduler worker
// goroutines.
type Plan struct {
	mu    sync.Mutex
	seed  uint64
	rules []rule
	fired map[string]int // site+kind → times fired
}

// New returns an empty plan with the given selection seed (used only by
// rate-gated rules; exact-site rules are seed-independent).
func New(seed uint64) *Plan {
	return &Plan{seed: seed, fired: make(map[string]int)}
}

// Add arms one fault from its spec string:
//
//	kind@experiment/workload/config[:key=val,...]
//
// where kind is panic|transient|slow (or a network kind, see net.go), each
// site component may be "*", the config is everything after the second '/'
// (abl-btb's configs are "<entries>/<kind>"), and the options are trips=N
// (default 1), delay=DUR (slow faults, default 250ms), and rate=F in (0,1]
// (seeded-hash site selection).
func (p *Plan) Add(spec string) error {
	// Options are cut at the last ':' whose tail is key=val shaped — not the
	// first — because network sites legitimately contain colons
	// (conn-reset@net/127.0.0.1:9000/accept:trips=1).
	head, optStr, hasOpts := spec, "", false
	if i := strings.LastIndexByte(spec, ':'); i >= 0 && strings.Contains(spec[i+1:], "=") {
		head, optStr, hasOpts = spec[:i], spec[i+1:], true
	}
	kindStr, siteStr, ok := strings.Cut(head, "@")
	if !ok {
		return fmt.Errorf("faults: rule %q: want kind@exp/workload/config", spec)
	}
	r := rule{kind: Kind(kindStr), trips: 1, delay: 250 * time.Millisecond}
	switch r.kind {
	case KindPanic, KindTransient, KindSlow,
		KindConnReset, KindSlowNet, KindTruncatedBody, KindGarbageJSON:
	default:
		return fmt.Errorf("faults: rule %q: unknown kind %q", spec, kindStr)
	}
	parts := strings.SplitN(siteStr, "/", 3) // a config may itself contain '/'
	if len(parts) != 3 {
		return fmt.Errorf("faults: rule %q: site %q is not exp/workload/config", spec, siteStr)
	}
	r.exp, r.wl, r.cfg = parts[0], parts[1], parts[2]
	if hasOpts {
		for _, kv := range strings.Split(optStr, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("faults: rule %q: option %q is not key=val", spec, kv)
			}
			switch k {
			case "trips":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return fmt.Errorf("faults: rule %q: bad trips %q", spec, v)
				}
				r.trips = n
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return fmt.Errorf("faults: rule %q: bad delay %q", spec, v)
				}
				r.delay = d
			case "rate":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f <= 0 || f > 1 {
					return fmt.Errorf("faults: rule %q: bad rate %q", spec, v)
				}
				r.rate = f
			default:
				return fmt.Errorf("faults: rule %q: unknown option %q", spec, k)
			}
		}
	}
	p.mu.Lock()
	p.rules = append(p.rules, r)
	p.mu.Unlock()
	return nil
}

// Parse builds a plan from a ';'-separated rule list. A leading "seed=N"
// element seeds rate-gated selection (default 1).
func Parse(spec string) (*Plan, error) {
	p := New(1)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if v, ok := strings.CutPrefix(part, "seed="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", v)
			}
			p.seed = n
			continue
		}
		if err := p.Add(part); err != nil {
			return nil, err
		}
	}
	if len(p.rules) == 0 {
		return nil, fmt.Errorf("faults: %q arms no rules", spec)
	}
	return p, nil
}

// EnvVar is the environment gate the CLIs and the chaos CI pass read.
const EnvVar = "IGNITE_FAULTS"

// FromEnvSpec resolves an IGNITE_FAULTS value: empty → nil plan (injection
// off), "smoke" → the canonical Smoke plan, anything else → Parse.
func FromEnvSpec(v string) (*Plan, error) {
	switch v {
	case "":
		return nil, nil
	case "smoke":
		return Smoke(), nil
	default:
		return Parse(v)
	}
}

// Smoke is the canonical chaos plan: one panic, one transient error that
// clears after a single trip, and one slow cell long enough to overrun any
// reasonable test deadline. Sites are chosen on the quick two-workload test
// set (Fib-G, Auth-G) so the chaos suite and the CI pass hit all three.
func Smoke() *Plan {
	p := New(1)
	for _, spec := range []string{
		"panic@fig1/Fib-G/b2b",
		"transient@fig8/Auth-G/ignite:trips=1",
		"slow@fig3/Fib-G/jukebox:delay=30s",
	} {
		if err := p.Add(spec); err != nil {
			panic("faults: bad builtin smoke rule: " + err.Error())
		}
	}
	return p
}

// selected reports whether a rate-gated rule selects the site, via a seeded
// FNV hash — deterministic for a (seed, site, kind) triple, independent of
// scheduling order.
func (p *Plan) selected(r rule, s Site) bool {
	if r.rate == 0 || r.rate >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", p.seed, r.kind, s)
	return float64(h.Sum64()%1_000_000) < r.rate*1_000_000
}

// fire finds the first armed, matching, still-tripping rule of the given
// kinds and consumes one trip. p.mu must not be held.
func (p *Plan) fire(s Site, kinds ...Kind) (rule, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.rules {
		for _, k := range kinds {
			if r.kind != k || !r.matches(s) || !p.selected(r, s) {
				continue
			}
			key := string(r.kind) + "|" + s.String()
			if p.fired[key] >= r.trips {
				continue
			}
			p.fired[key]++
			r.trips = p.fired[key] // reuse field to report the trip number
			return r, true
		}
	}
	return rule{}, false
}

// Fire applies the armed fault (if any) for the site: panic faults panic,
// slow faults sleep (returning early with ctx.Err() on cancellation), and
// transient faults return a *TransientError. Nil receiver and no-match both
// return nil, so callers can fire unconditionally.
func (p *Plan) Fire(ctx context.Context, s Site) error {
	if p == nil {
		return nil
	}
	r, ok := p.fire(s, KindPanic, KindTransient, KindSlow)
	if !ok {
		return nil
	}
	switch r.kind {
	case KindPanic:
		panic(fmt.Sprintf("faults: injected panic at %s", s))
	case KindSlow:
		t := time.NewTimer(r.delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("faults: slow cell at %s interrupted: %w", s, context.Cause(ctx))
		}
	case KindTransient:
		return &TransientError{Site: s, Trip: r.trips}
	}
	return nil
}
