// The mutation smoke: every law in the verifier is broken on purpose and
// must fire, so the checker itself cannot silently rot. The tests live in an
// external package because check's consumers (sim) sit above it in the
// import graph; importing sim here from an in-package test would cycle.
package check_test

import (
	"errors"
	"strings"
	"testing"

	"ignite/internal/cache"
	"ignite/internal/check"
	"ignite/internal/engine"
	"ignite/internal/lukewarm"
	"ignite/internal/memsys"
	"ignite/internal/sim"
	"ignite/internal/stats"
	"ignite/internal/workload"
)

// validProbe satisfies every per-invocation law.
func validProbe() check.Probe {
	return check.Probe{
		Cycles: 200,
		Stack:  stats.CPIStack{Retiring: 100, Fetch: 50, BadSpec: 10, Backend: 40},

		HierInstrFetches: 1000,
		L1IAccesses:      1000,
		L1IHits:          900,
		L1IMisses:        100,

		BTBRestoredInserts:   50,
		BTBRestoredUntouched: 10,
		BTBOccupancy:         40,
		BTBEntries:           128,

		ReplayAttached:      true,
		ReplayBytesRead:     100,
		ReplayBytesRecorded: 200,

		L1ILines:   []uint64{0x0, 0x40, 0x1000},
		L2Contains: func(uint64) bool { return true },

		Now:     1200,
		PrevNow: 1000,
	}
}

// violationsOf unwraps the errors.Join tree into the set of violated law
// names.
func violationsOf(t *testing.T, err error) map[string]*check.Violation {
	t.Helper()
	out := map[string]*check.Violation{}
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		var v *check.Violation
		if errors.As(e, &v) {
			out[v.Invariant] = v
		}
		if joined, ok := e.(interface{ Unwrap() []error }); ok {
			for _, sub := range joined.Unwrap() {
				walk(sub)
			}
		}
	}
	walk(err)
	return out
}

func TestVerifyCleanProbe(t *testing.T) {
	if err := check.Verify(validProbe()); err != nil {
		t.Fatalf("clean probe rejected: %v", err)
	}
}

// TestMutationSmoke corrupts one law's inputs at a time and asserts that
// exactly that law notices. The coverage assertion keeps the table in sync
// with check.Names(): adding a law without a mutation here fails the test.
func TestMutationSmoke(t *testing.T) {
	mutations := map[string]func(p *check.Probe){
		"cpi-stack-sum": func(p *check.Probe) { p.Cycles += 5 },
		"cpi-components-nonneg": func(p *check.Probe) {
			p.Stack.BadSpec = -3
			p.Cycles = p.Stack.Total() // keep the sum law satisfied
		},
		"fetch-lookup-balance": func(p *check.Probe) { p.HierInstrFetches++ },
		"l1i-hit-miss-balance": func(p *check.Probe) { p.L1IHits++ },
		"btb-restored-bounds":  func(p *check.Probe) { p.BTBRestoredUntouched = p.BTBOccupancy + 1 },
		"replay-meta-bytes":    func(p *check.Probe) { p.ReplayBytesRead = p.ReplayBytesRecorded + 1 },
		"l1i-l2-inclusion":     func(p *check.Probe) { p.L2Contains = func(la uint64) bool { return la != 0x40 } },
		"monotonic-clock":      func(p *check.Probe) { p.Now = p.PrevNow },
	}
	for _, name := range check.Names() {
		mutate, ok := mutations[name]
		if !ok {
			t.Errorf("law %q has no mutation in the smoke table", name)
			continue
		}
		p := validProbe()
		mutate(&p)
		err := check.Verify(p)
		if err == nil {
			t.Errorf("law %q did not fire on its mutation", name)
			continue
		}
		vs := violationsOf(t, err)
		v, fired := vs[name]
		if !fired {
			t.Errorf("mutation for %q fired %v instead", name, err)
			continue
		}
		if len(v.Metrics) == 0 {
			t.Errorf("law %q fired without a metric snapshot", name)
		}
		if !strings.Contains(v.Error(), name) {
			t.Errorf("violation message %q does not name the law", v.Error())
		}
	}
	if extra := len(mutations) - len(check.Names()); extra != 0 {
		t.Errorf("mutation table has %d entries not matching any law", extra)
	}
}

func TestViolationErrorRendersMetricsSorted(t *testing.T) {
	v := &check.Violation{
		Invariant: "demo",
		Detail:    "something broke",
		Metrics:   map[string]float64{"zeta": 1, "alpha": 2},
	}
	msg := v.Error()
	if !strings.Contains(msg, `invariant "demo"`) || !strings.Contains(msg, "something broke") {
		t.Errorf("message incomplete: %q", msg)
	}
	if strings.Index(msg, "alpha") > strings.Index(msg, "zeta") {
		t.Errorf("metrics not sorted: %q", msg)
	}
}

func TestEnvEnabled(t *testing.T) {
	cases := []struct {
		val  string
		want bool
	}{{"", false}, {"0", false}, {"false", false}, {"FALSE", false}, {"1", true}, {"yes", true}}
	for _, c := range cases {
		t.Setenv(check.EnvVar, c.val)
		if got := check.EnvEnabled(); got != c.want {
			t.Errorf("EnvEnabled(%q) = %v, want %v", c.val, got, c.want)
		}
	}
}

// liveSetup builds a small Ignite simulation with an auditor anchored before
// any invocation has run.
func liveSetup(t *testing.T) (*sim.Setup, *check.Invariants) {
	t.Helper()
	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	spec.TargetInstr /= 4
	setup, err := sim.New(spec, sim.KindIgnite)
	if err != nil {
		t.Fatal(err)
	}
	iv := check.New(setup.Eng)
	iv.AttachIgnite(setup.Ignite)
	return setup, iv
}

func TestInvariantsCleanOnLiveEngine(t *testing.T) {
	setup, iv := liveSetup(t)
	st, err := setup.Eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: setup.Spec.MaxInstr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := iv.CheckInvocation(st); err != nil {
		t.Fatalf("clean invocation failed the audit: %v", err)
	}
	if iv.Audits() != 1 {
		t.Errorf("audits = %d, want 1", iv.Audits())
	}
}

// TestEngineCorruptionCaught proves the engine-to-probe plumbing feeds the
// laws: corrupting real engine state (not a synthetic probe) fires the
// matching invariant.
func TestEngineCorruptionCaught(t *testing.T) {
	setup, iv := liveSetup(t)
	st, err := setup.Eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: setup.Spec.MaxInstr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Verify(iv.ProbeNow(st)); err != nil {
		t.Fatalf("pre-corruption state failed the audit: %v", err)
	}

	// Corrupt the CPI stack of the invocation under audit.
	bad := *st
	bad.Stack.Fetch += 10
	if vs := violationsOf(t, check.Verify(iv.ProbeNow(&bad))); vs["cpi-stack-sum"] == nil {
		t.Error("corrupted CPI stack not caught")
	}

	// Smuggle a line into the L1-I behind the inclusive L2's back.
	hier := setup.Eng.Hierarchy()
	la := uint64(0x7ff0000)
	for hier.L2.Contains(la) || hier.L1I.Contains(la) {
		la += 64
	}
	hier.L1I.Insert(la, cache.ProvDemand)
	if vs := violationsOf(t, check.Verify(iv.ProbeNow(st))); vs["l1i-l2-inclusion"] == nil {
		t.Error("L1-I/L2 inclusion breach not caught")
	}
}

func TestSimRunWithChecksPasses(t *testing.T) {
	spec, err := workload.ByName("Auth-G")
	if err != nil {
		t.Fatal(err)
	}
	spec.TargetInstr /= 4
	setup, err := sim.New(spec, sim.KindIgnite, sim.WithChecks())
	if err != nil {
		t.Fatal(err)
	}
	if setup.Checks == nil {
		t.Fatal("WithChecks did not install the auditor")
	}
	if _, err := setup.Run(lukewarm.Interleaved); err != nil {
		t.Fatalf("checked run failed: %v", err)
	}
	if setup.Checks.Audits() == 0 {
		t.Error("no invocations were audited")
	}
}

func TestEnvGateInstallsChecks(t *testing.T) {
	t.Setenv(check.EnvVar, "1")
	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	spec.TargetInstr /= 8
	setup, err := sim.New(spec, sim.KindNL)
	if err != nil {
		t.Fatal(err)
	}
	if setup.Checks == nil {
		t.Fatal("IGNITE_CHECKS=1 did not install the auditor")
	}
}

// validResult builds a protocol result satisfying every aggregate law.
func validResult() *lukewarm.Result {
	mk := func(cyc float64) *engine.InvocationStats {
		return &engine.InvocationStats{
			Instrs: 1000,
			Cycles: cyc,
			Stack:  stats.CPIStack{Retiring: cyc / 2, Fetch: cyc / 4, BadSpec: cyc / 8, Backend: cyc / 8},
		}
	}
	return &lukewarm.Result{
		PerInvocation: []*engine.InvocationStats{mk(2000), mk(2400)},
		Traffic: []memsys.Report{
			{UsefulInstrBytes: 100, UselessInstrBytes: 51},
			{UsefulInstrBytes: 120, UselessInstrBytes: 60},
		},
	}
}

func TestVerifyResult(t *testing.T) {
	if err := check.VerifyResult(validResult()); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}

	empty := &lukewarm.Result{}
	if vs := violationsOf(t, check.VerifyResult(empty)); vs["result-nonempty"] == nil {
		t.Error("empty result not caught")
	}

	mismatched := validResult()
	mismatched.Traffic = mismatched.Traffic[:1]
	if vs := violationsOf(t, check.VerifyResult(mismatched)); vs["result-traffic-per-invocation"] == nil {
		t.Error("traffic/invocation count mismatch not caught")
	}

	skewed := validResult()
	skewed.PerInvocation[0].Cycles += 7 // stack no longer sums to cycles
	if vs := violationsOf(t, check.VerifyResult(skewed)); vs["result-cycles-sum"] == nil {
		t.Error("cycles/stack divergence not caught")
	}
}
