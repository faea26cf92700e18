package experiments

import (
	"reflect"
	"strings"
	"testing"

	"ignite/internal/engine"
	"ignite/internal/ignite"
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

// TestNewWithProgramAppliesEveryTweak changes, one at a time, every leaf
// field of sim.Tweaks and requires sim.NewWithProgram to act on it: the
// built setup's Keep, engine configuration or Ignite configuration must
// differ, or the build must fail. A failed build counts as acting on the
// field, since an ignored field cannot fail it; the walk's generic values
// include geometry the engine rejects, such as a one-entry BTB, which
// NewWithProgram must return as an error: a panic fails the test.
func TestNewWithProgramAppliesEveryTweak(t *testing.T) {
	spec, err := workload.ByName("Auth-G")
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	type resolved struct {
		Keep   lukewarm.Preserve
		Engine engine.Config
		Ignite ignite.Config
	}
	build := func(tw sim.Tweaks) (resolved, error) {
		st, err := sim.NewWithProgram(spec, prog, sim.KindIgnite, sim.WithTweaks(tw))
		if err != nil {
			return resolved{}, err
		}
		return resolved{st.Keep, st.Eng.Config(), st.Ignite.Config()}, nil
	}
	var tw sim.Tweaks
	walkLeaves(t, reflect.ValueOf(&tw).Elem(), "Tweaks", func(path string, change func()) {
		before, err := build(tw)
		if err != nil {
			t.Fatalf("%s: base setup: %v", path, err)
		}
		change()
		after, err := build(tw)
		switch {
		case err != nil:
			t.Logf("%s: build rejects the changed value (%v)", path, err)
		case reflect.DeepEqual(before, after):
			t.Errorf("sim.NewWithProgram ignores %s", path)
		}
	})
}
