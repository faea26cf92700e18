package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/serve"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// shrunk returns a configuration of the named workload small enough for a
// unit test: one function at 20k instructions with fig8 only; one 200 ms
// hot sub-run; six fleet functions over one second.
func shrunk(t *testing.T, name string, traced bool) runConfig {
	return runConfig{
		Workload:  name,
		Seed:      7,
		Window:    map[string]time.Duration{"sweep": 300 * time.Millisecond, "serve-hot": 200 * time.Millisecond, "serve-fleet": time.Second}[name],
		Traced:    traced,
		Artifacts: t.TempDir(),
		Sweep:     sweepParams{Functions: []string{"Auth-G"}, TargetInstr: 20_000, IDs: []experiments.ID{"fig8"}, Setups: 2},
		Hot:       hotParams{Function: "Fib-G", Rate: 500, SubRuns: 1, Setups: 1},
		Fleet:     fleetParams{N: 6, RateScale: 20, TargetInstr: 20_000, Setups: 1},
	}
}

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	a, err := sweepSpecs(defaultSweep, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sweepSpecs(defaultSweep, 1)
	c, _ := sweepSpecs(defaultSweep, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("sweep specs differ for one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("sweep specs equal across seeds")
	}
	for i, s := range a {
		if s.Name != c[i].Name || s.TargetInstr != defaultSweep.TargetInstr {
			t.Errorf("seed changed the shape of function %d: %s vs %s", i, s.Name, c[i].Name)
		}
	}

	if !reflect.DeepEqual(hotTape(1, 0, 6000, time.Second), hotTape(1, 0, 6000, time.Second)) {
		t.Error("hot tape differs for one seed")
	}
	if reflect.DeepEqual(hotTape(1, 0, 6000, time.Second), hotTape(2, 0, 6000, time.Second)) ||
		reflect.DeepEqual(hotTape(1, 0, 6000, time.Second), hotTape(1, 1, 6000, time.Second)) {
		t.Error("hot tapes equal across seeds or sub-runs")
	}

	rates := []float64{1, 5, 0.2, 12}
	d := 30 * time.Second
	tape := fleetTape(3, rates, d)
	if !reflect.DeepEqual(tape, fleetTape(3, rates, d)) {
		t.Error("fleet tape differs for one seed")
	}
	first := make(map[int]time.Duration)
	for i, a := range tape {
		if i > 0 && a.At < tape[i-1].At {
			t.Fatalf("fleet tape out of order at %d", i)
		}
		if _, ok := first[a.Fn]; !ok {
			first[a.Fn] = a.At
		}
	}
	for i := range rates {
		if want := time.Duration(0.7 * float64(d) * float64(i) / float64(len(rates))); first[i] != want {
			t.Errorf("function %d first due at %v, want its window start %v", i, first[i], want)
		}
	}
}

// declared reads BENCHMARK.json's metric declarations.
func declared(t *testing.T) (e2e, layer []decl) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	return bench.EndToEnd, bench.PerLayer
}

func TestMetricNamesDeclared(t *testing.T) {
	e2e, layer := declared(t)
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer does not list the benchmark's per-layer metrics in order")
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.Name) || len(d.Name) > 64 || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
	}

	for name := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := execute(context.Background(), shrunk(t, name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !r.correct() || r.failed > 0 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d problems=%v",
					name, traced, r.attempted, r.failed, r.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			got := r.result().Metrics
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(got), len(want))
			}
			for _, d := range want {
				m, ok := got[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", name, traced, d.Name, m)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.Name, m.Value)
				}
			}
			// Every declared name was emitted; nothing undeclared was set.
			for v := range r.values {
				if !seen[v] {
					t.Errorf("%s: undeclared metric %s", name, v)
				}
			}
		}
	}
}

func TestGateRejectsFlippedFloat(t *testing.T) {
	spec, _ := workload.ByName("Auth-G")
	spec.TargetInstr = 20_000
	opt := experiments.Options{Workloads: []workload.Spec{spec}}
	results, err := experiments.RunAll(context.Background(), []experiments.ID{"fig8"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	docs, digest, err := exportDocs(results, opt.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	for row, cols := range docs[0].Values {
		for col, v := range cols {
			cols[col] = math.Nextafter(v, math.Inf(1))
			flipped, err := digestDocs(docs)
			if err != nil {
				t.Fatal(err)
			}
			if flipped == digest {
				t.Errorf("flipping %s/%s by one ulp left the digest unchanged", row, col)
			}
			cols[col] = v
			break
		}
		break
	}

	r := &run{cfg: runConfig{Seed: 1}, values: map[string]float64{}}
	golden := t.TempDir() + "/sweep-seed1.sha256"
	if err := os.WriteFile(golden, []byte(strings.Repeat("0", 64)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	checkGolden(r, golden, digest)
	if len(r.problems) != 1 {
		t.Errorf("a digest differing from the golden gave problems %v", r.problems)
	}
}

func TestGateRejectsMismatchedResult(t *testing.T) {
	spec, _ := workload.ByName("Fib-G")
	spec.TargetInstr = 20_000
	_, res, err := simulate(spec, sim.KindIgnite)
	if err != nil {
		t.Fatal(err)
	}
	want := serve.ResultFrom(res)
	body := func(r serve.InvocationResult) []byte {
		data, err := json.Marshal(serve.InvokeResponse{SchemaVersion: serve.SchemaVersion, Result: r})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if err := compareServed(body(want), want); err != nil {
		t.Errorf("matching result rejected: %v", err)
	}
	bad := want
	bad.CPI = math.Nextafter(bad.CPI, 0)
	if compareServed(body(bad), want) == nil {
		t.Error("a result one ulp off was accepted")
	}
}
