// Observability: drive one simulation through the sim API's functional
// options, stream structured events through an obs.Tracer, and export the
// full metric snapshot as a versioned JSON document — the same
// machine-readable form ignite-bench -out and ignite-sim -out write.
package main

import (
	"fmt"
	"log"
	"os"

	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

func main() {
	spec, err := workload.ByName("Auth-G")
	if err != nil {
		log.Fatal(err)
	}
	// A quarter of the usual budget: this example is about plumbing, not
	// paper-fidelity numbers.
	spec.TargetInstr /= 4

	// A Collector buffers every event; NewWriterTracer(os.Stderr) would
	// stream them as JSON lines instead. MultiTracer fans out to both.
	events := &obs.Collector{}

	// Functional options compose unrelated knobs; the sensitivity-study
	// tweaks travel as one sim.Tweaks value.
	setup, err := sim.New(spec, sim.KindIgnite,
		sim.WithTweaks(sim.Tweaks{ThrottleThreshold: 64}),
		sim.WithTracer(events),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := setup.Run(lukewarm.Interleaved)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s / ignite: CPI %.3f, L1I %.1f MPKI, BTB %.1f MPKI\n",
		spec.Name, res.CPI(), res.L1IMPKI(), res.BTBMPKI())
	// With a quarter budget the invocation usually ends before the replay
	// stream drains, so replay_start events outnumber replay_end ones.
	fmt.Printf("events: %d invocations, %d replay streams started (%d drained)\n",
		events.Count("invocation_end"), events.Count("replay_start"),
		events.Count("replay_end"))

	// One registry aggregates every component's counters (engine, caches,
	// Ignite, prefetchers) plus the derived result gauges.
	reg := obs.NewRegistry()
	setup.RegisterMetrics(reg)
	res.RegisterMetrics(reg, nil)

	doc := obs.Document{
		SchemaVersion: obs.SchemaVersion,
		Kind:          obs.DocumentKind,
		ID:            "observability-example",
		Title:         "Observability example: Auth-G under Ignite",
		Cells: []obs.CellMetrics{{
			Workload: spec.Name,
			Config:   string(sim.KindIgnite),
			Metrics:  reg.Snapshot().Values(),
		}},
		Manifest: obs.Manifest{
			Parallel: 1,
			Workloads: []obs.WorkloadManifest{{
				Name: spec.Name, Seed: spec.Gen.Seed, TargetInstr: spec.TargetInstr,
			}},
		},
	}
	data, err := doc.Encode()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("document: schema v%d, %d metrics in one cell\n",
		doc.SchemaVersion, len(doc.Cells[0].Metrics))
	// Print the first few lines of the JSON document; WriteFile(dir, id)
	// persists the same bytes to <dir>/<id>.json.
	for i, b := 0, 0; i < len(data) && b < 8; i++ {
		if data[i] == '\n' {
			b++
		}
		os.Stdout.Write(data[i : i+1])
	}
	fmt.Println("  ...")
}
