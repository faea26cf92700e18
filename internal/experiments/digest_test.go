package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ignite/internal/cfg"
	"ignite/internal/fleet/population"
	"ignite/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// checkDigests compares got (name → hex SHA-256) against the committed
// sha256sum-style file at path, or rewrites the file under -update. On a
// mismatch it names every entry that moved, appeared or vanished.
func checkDigests(t *testing.T, path string, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateGolden {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d digests)", path, len(names))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[name] = sum
	}
	var moved []string
	for _, name := range names {
		if want[name] != got[name] {
			moved = append(moved, name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			moved = append(moved, name+" (missing)")
		}
	}
	if len(moved) > 0 {
		sort.Strings(moved)
		t.Fatalf("%d digest(s) moved against %s: %s\n(rerun with -update only if the change is intentional, and say why)",
			len(moved), path, strings.Join(moved, ", "))
	}
}

// programDigest hashes everything a generated program exposes to the
// simulator: every Block field (Bias by its bits), every function's name,
// entry, return and block list, and the committed trace of each walk seed.
func programDigest(t *testing.T, spec workload.Spec) string {
	t.Helper()
	prog, _, err := spec.Build()
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	str := func(s string) { u64(uint64(len(s))); buf = append(buf, s...) }
	flush := func() { h.Write(buf); buf = buf[:0] }

	str(prog.Name)
	u64(prog.BaseAddr)
	u64(prog.LayoutSeed)
	u64(uint64(len(prog.Blocks)))
	for i := range prog.Blocks {
		b := &prog.Blocks[i]
		u64(uint64(b.ID))
		u64(b.Addr)
		u64(uint64(b.NumInstr))
		u64(uint64(b.Kind))
		u64(uint64(b.Target))
		u64(uint64(b.Fall))
		u64(math.Float64bits(b.Bias))
		tgts := prog.IndirectTargets(b)
		u64(uint64(len(tgts)))
		for _, tg := range tgts {
			u64(uint64(tg))
		}
		u64(uint64(b.Func))
		flush()
	}
	for i := range prog.Funcs {
		f := &prog.Funcs[i]
		u64(uint64(f.Index))
		str(f.Name)
		u64(uint64(f.Entry))
		u64(uint64(f.Ret))
		u64(uint64(f.Ret - f.Entry + 1)) // the function's blocks, Entry..Ret
		for id := f.Entry; id <= f.Ret; id++ {
			u64(uint64(id))
		}
		flush()
	}
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := prog.Walk(0, cfg.WalkOptions{Seed: seed, MaxInstr: 100_000}, func(s cfg.Step) bool {
			u64(uint64(s.Block()))
			if s.Taken() {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			if len(buf) >= 1<<16 {
				flush()
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: walk seed %d: %v", spec.Name, seed, err)
		}
		u64(res.Instrs)
		u64(res.Steps)
		if res.Truncated {
			u64(1)
		} else {
			u64(0)
		}
		flush()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenProgramDigests pins the program generator and the trace walker
// bit for bit: one SHA-256 per spec over the generated program and three
// committed walks of 100k instructions, for all 20 Table-1 workloads and
// the first 20 functions of the seed-1 sampled population. Any change to
// the generator's RNG sequence, the lowering, the layout or the walker
// moves a digest.
func TestGoldenProgramDigests(t *testing.T) {
	specs := workload.All()
	fns, err := population.Sample(population.Params{Seed: 1, N: 20})
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, population.Specs(fns)...)
	got := make(map[string]string, len(specs))
	for _, spec := range specs {
		got[spec.Name] = programDigest(t, spec)
	}
	checkDigests(t, filepath.Join("testdata", "programs.sha256"), got)
}

// TestGoldenCatalogDigests pins every exported experiment document: RunAll
// over all 20 Table-1 workloads at 10k instructions, one SHA-256 per
// document, with the environment-dependent manifest fields cleared. It is
// the tier-1 proof of the standing contract that documents stay
// byte-identical; a failure names each experiment whose document moved.
func TestGoldenCatalogDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment over the whole catalog")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; the race run covers the same paths on smaller inputs")
	}
	specs := workload.All()
	for i := range specs {
		specs[i].TargetInstr = 10_000
	}
	opt := Options{Workloads: specs, Parallel: 2, Cache: NewCellCache()}
	results, err := RunAll(context.Background(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	man := opt.Manifest()
	man.Generated, man.GoVersion = "", ""
	got := make(map[string]string, len(results))
	for _, res := range results {
		data, err := res.Document(man).Encode()
		if err != nil {
			t.Fatalf("%s: %v", res.ID, err)
		}
		sum := sha256.Sum256(data)
		got[string(res.ID)] = hex.EncodeToString(sum[:])
	}
	checkDigests(t, filepath.Join("testdata", "catalog.sha256"), got)
}
