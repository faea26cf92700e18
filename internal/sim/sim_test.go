package sim

import (
	"testing"

	"ignite/internal/ignite"
	"ignite/internal/lukewarm"
	"ignite/internal/workload"
)

func spec(t *testing.T) workload.Spec {
	t.Helper()
	s, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	// Shorten invocations for test speed.
	s.TargetInstr /= 2
	return s
}

func TestAllKindsBuildAndRun(t *testing.T) {
	s := spec(t)
	prog, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		setup, err := NewWithProgram(s, prog, k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		res, err := setup.Run(lukewarm.Interleaved)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.Instrs() == 0 {
			t.Fatalf("%s: empty run", k)
		}
	}
}

func TestUnknownKindRejected(t *testing.T) {
	s := spec(t)
	if _, err := New(s, Kind("bogus")); err == nil {
		t.Error("accepted unknown kind")
	}
}

func TestKindWiring(t *testing.T) {
	s := spec(t)
	prog, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kind       Kind
		fdp, boom  bool
		jb, cf, ig bool
	}{
		{KindNL, false, false, false, false, false},
		{KindFDP, true, false, false, false, false},
		{KindBoomerang, true, true, false, false, false},
		{KindJukebox, false, false, true, false, false},
		{KindBoomerangJB, true, true, true, false, false},
		{KindConfluence, false, false, false, true, false},
		{KindIgnite, true, false, false, false, true},
		{KindConfluenceIgnite, false, false, false, true, true},
	}
	for _, c := range cases {
		st, err := NewWithProgram(s, prog, c.kind)
		if err != nil {
			t.Fatal(err)
		}
		ec := st.Eng.Config()
		if ec.FDPEnabled != c.fdp || ec.BoomerangEnabled != c.boom {
			t.Errorf("%s: fdp=%v boom=%v", c.kind, ec.FDPEnabled, ec.BoomerangEnabled)
		}
		if (st.Jukebox != nil) != c.jb || (st.Confluence != nil) != c.cf || (st.Ignite != nil) != c.ig {
			t.Errorf("%s: jb=%v cf=%v ig=%v", c.kind, st.Jukebox != nil, st.Confluence != nil, st.Ignite != nil)
		}
	}
}

func TestIdealImpliesWarmCBP(t *testing.T) {
	s := spec(t)
	st, err := New(s, KindIdeal)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Keep.BIM || !st.Keep.TAGE {
		t.Error("ideal must preserve the CBP")
	}
	if !st.Eng.Config().PerfectL1I || !st.Eng.Config().PerfectBTB {
		t.Error("ideal must have perfect L1I and BTB")
	}
}

func TestIgniteTAGEPreservesTage(t *testing.T) {
	s := spec(t)
	st, err := New(s, KindIgniteTAGE)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Keep.TAGE || st.Keep.BIM {
		t.Errorf("ignite+tage keep = %+v", st.Keep)
	}
}

func TestBIMPolicyTweak(t *testing.T) {
	s := spec(t)
	pol := ignite.BIMWeaklyNotTaken
	st, err := New(s, KindIgnite, WithTweaks(Tweaks{BIMPolicy: &pol}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Ignite == nil {
		t.Fatal("no ignite instance")
	}
	// Run to make sure the policy is exercised without error.
	if _, err := st.Run(lukewarm.Interleaved); err != nil {
		t.Fatal(err)
	}
}

// TestHeadlineOrdering is the repository's core regression: on lukewarm
// invocations, Ignite must outperform Boomerang+Jukebox, which must
// outperform the NL baseline; the ideal front end bounds everything.
func TestHeadlineOrdering(t *testing.T) {
	s := spec(t)
	prog, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	cpi := map[Kind]float64{}
	for _, k := range []Kind{KindNL, KindBoomerangJB, KindIgnite, KindIdeal} {
		setup, err := NewWithProgram(s, prog, k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := setup.Run(lukewarm.Interleaved)
		if err != nil {
			t.Fatal(err)
		}
		cpi[k] = res.CPI()
	}
	if !(cpi[KindIdeal] < cpi[KindIgnite] && cpi[KindIgnite] < cpi[KindBoomerangJB] &&
		cpi[KindBoomerangJB] < cpi[KindNL]) {
		t.Errorf("ordering violated: %v", cpi)
	}
}
