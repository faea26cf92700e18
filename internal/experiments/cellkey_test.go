package experiments

import (
	"reflect"
	"strings"
	"testing"

	"ignite/internal/lukewarm"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// walkLeaves calls visit once per leaf field reachable from v, an
// addressable struct, with the leaf's path and a change that moves the leaf
// to another value; the walk restores the leaf after visit returns. A nil
// pointer is a leaf of its own (nil to a pointer at the zero value) and is
// then walked through with the pointer set. A field the walk cannot change
// fails the test, so a new field kind forces the walk to learn it.
func walkLeaves(t *testing.T, v reflect.Value, path string, visit func(path string, change func())) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s is unexported: the walk cannot change it", path, f.Name)
				continue
			}
			walkLeaves(t, v.Field(i), path+"."+f.Name, visit)
		}
		return
	case reflect.Pointer:
		if v.IsNil() {
			set := func() { v.Set(reflect.New(v.Type().Elem())) }
			visit(path+" (nil to set)", set)
			set()
			defer v.SetZero()
		}
		walkLeaves(t, v.Elem(), path, visit)
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	defer v.Set(old)
	visit(path, func() {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: the walk cannot change a %s field", path, v.Kind())
		}
	})
}

// TestCellKeyCoversEveryField changes, one at a time, every leaf field
// reachable from CellSpec — through workload.Spec, cfg.GenParams,
// engine.DataConfig, sim.Tweaks, lukewarm.Preserve and the BIMPolicy
// pointer — and requires each change to move Key, and each change under
// Workload to move the program memo's key too.
func TestCellKeyCoversEveryField(t *testing.T) {
	wl, err := workload.ByName("Auth-G")
	if err != nil {
		t.Fatal(err)
	}
	cs := CellSpec{Workload: wl, Config: sim.KindIgnite, Mode: lukewarm.Interleaved}
	leaves := 0
	walkLeaves(t, reflect.ValueOf(&cs).Elem(), "CellSpec", func(path string, change func()) {
		leaves++
		key, prog := cs.Key(), canonicalKey(cs.Workload)
		change()
		if cs.Key() == key {
			t.Errorf("changing %s leaves Key unchanged", path)
		}
		if strings.HasPrefix(path, "CellSpec.Workload.") && canonicalKey(cs.Workload) == prog {
			t.Errorf("changing %s leaves the program key unchanged", path)
		}
	})
	if k := cs.Key(); len(k) != 64 || k != (CellSpec{Workload: wl, Config: sim.KindIgnite, Mode: lukewarm.Interleaved}).Key() {
		t.Errorf("key %q is not a stable hex SHA-256 after the walk", k)
	}
	t.Logf("%d leaf fields keyed", leaves)
}

// igniteTweaks are the Tweaks leaves only Ignite reads: a kind that runs no
// Ignite resolves to the same plan whatever they hold.
var igniteTweaks = map[string]bool{
	"Tweaks.BIMPolicy (nil to set)": true,
	"Tweaks.BIMPolicy":              true,
	"Tweaks.DoubleBuffer":           true,
	"Tweaks.ThrottleThreshold":      true,
	"Tweaks.MetadataBytes":          true,
}

// reads reports whether a kind whose default plan is base reads the tweak
// leaf at path: the Ignite tweaks only when the kind runs Ignite, a Keep bit
// only when the kind does not already imply it.
func reads(base sim.Plan, path string) bool {
	switch {
	case igniteTweaks[path]:
		return base.Ignite != nil
	case path == "Tweaks.Keep.BIM":
		return !base.Keep.BIM
	case path == "Tweaks.Keep.TAGE":
		return !base.Keep.TAGE
	}
	return true
}

// resolveKinds is every configuration kind, the fdp+ignite synonym
// included.
func resolveKinds() []sim.Kind { return append(sim.Kinds(), sim.KindFDPIgnite) }

// TestResolveCoversEveryTweak changes, one at a time, every leaf field of
// sim.Tweaks under every configuration kind, and requires sim.Resolve to
// move the plan, or to reject the changed value, exactly when the kind
// reads the leaf (see reads). A rejected value counts as read, since an
// ignored field cannot fail the resolve; the walk's generic values include
// geometry the engine rejects, such as a one-entry BTB. A leaf that a kind
// does not read must leave its plan unchanged: that fold is what lets the
// cell cache simulate such spellings once.
func TestResolveCoversEveryTweak(t *testing.T) {
	for _, kind := range resolveKinds() {
		base, err := sim.Resolve(kind, sim.Tweaks{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var tw sim.Tweaks
		walkLeaves(t, reflect.ValueOf(&tw).Elem(), "Tweaks", func(path string, change func()) {
			before, err := sim.Resolve(kind, tw)
			if err != nil {
				t.Fatalf("%s %s: base plan: %v", kind, path, err)
			}
			change()
			after, err := sim.Resolve(kind, tw)
			moved := err != nil || !reflect.DeepEqual(before, after)
			if moved != reads(base, path) {
				t.Errorf("%s: changing %s moves the plan: %v (err %v), want %v", kind, path, moved, err, !moved)
			}
		})
	}
}

// TestNewWithProgramAppliesEveryTweak builds every kind under every one-leaf
// change of sim.Tweaks and requires the setup to be exactly what
// sim.Resolve's plan says: its Keep, its engine configuration (with the
// workload's data profile), its Ignite configuration and its companions.
// With TestResolveCoversEveryTweak, every tweak a kind reads reaches the
// built setup. A value Resolve rejects must fail the build: a panic fails
// the test.
func TestNewWithProgramAppliesEveryTweak(t *testing.T) {
	spec, err := workload.ByName("Auth-G")
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind sim.Kind, path string, tw sim.Tweaks) {
		plan, perr := sim.Resolve(kind, tw)
		st, err := sim.NewWithProgram(spec, prog, kind, sim.WithTweaks(tw))
		if perr != nil || err != nil {
			if (perr == nil) != (err == nil) {
				t.Errorf("%s %s: Resolve error %v, NewWithProgram error %v", kind, path, perr, err)
			}
			return
		}
		want := plan.Engine
		want.Data = spec.Data
		got := sim.Plan{Engine: st.Eng.Config(), Keep: st.Keep,
			Jukebox: st.Jukebox != nil, Confluence: st.Confluence != nil}
		if st.Ignite != nil {
			ic := st.Ignite.Config()
			got.Ignite = &ic
		}
		plan.Engine = want
		if !reflect.DeepEqual(got, plan) {
			t.Errorf("%s %s: the setup is not its plan:\n got %+v\nwant %+v", kind, path, got, plan)
		}
	}
	for _, kind := range resolveKinds() {
		var tw sim.Tweaks
		check(kind, "Tweaks{}", tw)
		walkLeaves(t, reflect.ValueOf(&tw).Elem(), "Tweaks", func(path string, change func()) {
			change()
			check(kind, path, tw)
		})
	}
}
