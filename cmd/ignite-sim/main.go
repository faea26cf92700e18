// Command ignite-sim runs a single (function, configuration) simulation
// under the lukewarm protocol and prints detailed statistics. Sweeps over
// the experiment suite are cmd/ignite-bench's job.
//
// Usage:
//
//	ignite-sim -fn Auth-G -config ignite
//	ignite-sim -fn Curr-N -config boomerang+jb -mode back-to-back
//	ignite-sim -fn Auth-G -config ignite -out results/   # JSON metric snapshot
//	ignite-sim -show-config
//
// Simulation failures exit 1; usage errors exit 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

func main() {
	fnFlag := flag.String("fn", "Auth-G", "function name (see -list)")
	cfgFlag := flag.String("config", "nl", "front-end configuration (nl, fdp, boomerang, jukebox, boomerang+jb, confluence, ignite, ignite+tage, confluence+ignite, ideal)")
	modeFlag := flag.String("mode", "interleaved", "inter-invocation mode: interleaved or back-to-back")
	listFlag := flag.Bool("list", false, "list functions and configurations")
	showCfg := flag.Bool("show-config", false, "print the simulated core parameters (Table 2)")
	outFlag := flag.String("out", "", "directory for the run's machine-readable JSON metric document")
	cyclesFlag := flag.Uint64("max-cycles", 0, "per-invocation engine cycle budget (0 = unlimited)")
	flag.Parse()

	switch {
	case *showCfg:
		res, err := experiments.Run(context.Background(), "tab2", experiments.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	case *listFlag:
		fmt.Println("functions:")
		for _, s := range workload.All() {
			fmt.Printf("  %-8s %-36s %s\n", s.Name, s.FullName, s.Lang)
		}
		fmt.Println("configurations:")
		for _, k := range sim.Kinds() {
			fmt.Printf("  %s\n", k)
		}
	default:
		runOne(*fnFlag, *cfgFlag, *modeFlag, *outFlag, *cyclesFlag)
	}
}

// runOne simulates a single (function, configuration) cell and prints its
// statistics; with -out it also exports the cell's full metric snapshot.
func runOne(fn, cfgName, modeName, dir string, maxCycles uint64) {
	spec, err := workload.ByName(fn)
	if err != nil {
		fatalCode(2, err)
	}
	mode := lukewarm.Interleaved
	if modeName == "back-to-back" || modeName == "b2b" {
		mode = lukewarm.BackToBack
	}

	setup, err := sim.New(spec, sim.Kind(cfgName), sim.WithMaxCycles(maxCycles))
	if err != nil {
		fatalCode(2, err)
	}
	res, err := setup.Run(mode)
	if err != nil {
		fatal(err)
	}

	st := res.CPIStack()
	fmt.Printf("%s / %s / %s\n", spec.Name, cfgName, mode)
	fmt.Printf("  instructions   %d (over %d measured invocations)\n", res.Instrs(), len(res.PerInvocation))
	fmt.Printf("  CPI            %.3f\n", res.CPI())
	fmt.Printf("    retiring     %.3f\n", st.Retiring)
	fmt.Printf("    fetch-bound  %.3f\n", st.Fetch)
	fmt.Printf("    bad-spec     %.3f\n", st.BadSpec)
	fmt.Printf("    backend      %.3f\n", st.Backend)
	fmt.Printf("  L1-I MPKI      %.2f (off-chip %.2f)\n", res.L1IMPKI(), res.OffChipMPKI())
	fmt.Printf("  BTB MPKI       %.2f\n", res.BTBMPKI())
	fmt.Printf("  CBP MPKI       %.2f (initial %.2f)\n", res.CBPMPKI(), res.InitialCBPMPKI())
	fmt.Printf("  BPU MPKI       %.2f\n", res.BPUMPKI())
	tr := res.MeanTraffic()
	fmt.Printf("  DRAM traffic   useful %d B, useless %d B, record %d B, replay %d B\n",
		tr.UsefulInstrBytes, tr.UselessInstrBytes, tr.RecordMetaBytes, tr.ReplayMetaBytes)
	if setup.Ignite != nil {
		fmt.Printf("  ignite         %v, %d records, %d B metadata\n",
			setup.Ignite.Regs().ReplayEnable, setup.Ignite.Recorder().Records(), setup.Ignite.MetadataUsed())
	}

	if dir != "" {
		reg := obs.NewRegistry()
		setup.RegisterMetrics(reg)
		res.RegisterMetrics(reg, nil)
		doc := obs.Document{
			SchemaVersion: obs.SchemaVersion,
			Kind:          obs.DocumentKind,
			ID:            fmt.Sprintf("run-%s-%s", spec.Name, cfgName),
			Title:         fmt.Sprintf("Single run: %s under %s (%s)", spec.Name, cfgName, mode),
			Cells: []obs.CellMetrics{{
				Workload: spec.Name,
				Config:   cfgName,
				Metrics:  reg.Snapshot().Values(),
			}},
			Manifest: obs.Manifest{
				Generated: time.Now().UTC().Format(time.RFC3339),
				Parallel:  1,
				Workloads: []obs.WorkloadManifest{{
					Name: spec.Name, Seed: spec.Gen.Seed, TargetInstr: spec.TargetInstr,
				}},
			},
		}
		path, err := doc.WriteFile(dir, doc.ID)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

func fatal(err error) { fatalCode(1, err) }
func fatalCode(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}
