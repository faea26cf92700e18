// Command perfbench is the repository benchmark. It drives the public entry
// points of the two paths users run — the reproduction sweep
// (experiments.RunAll over a persistent cell store) and the serving daemon
// (serve.NewServer on loopback, fed by an open-loop generator) — in one
// process, checks every output, and prints one JSON result line last.
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package from source inside the checkout and runs it
// from the repository root. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workloadFlag := flag.String("workload", "", "workload to run: sweep, serve-hot or serve-fleet")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	artifacts := flag.String("artifacts", filepath.Join(".bench_build", "perfbench"),
		"directory for scratch stores, spans and profiles")
	flag.Parse()
	if _, ok := workloads[*workloadFlag]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sweep|serve-hot|serve-fleet, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}

	cfg := runConfig{
		Workload:  *workloadFlag,
		Seed:      *seed,
		Window:    time.Duration(*seconds) * time.Second,
		Traced:    *trace == 1,
		Artifacts: *artifacts,
		Sweep:     defaultSweep,
		Hot:       defaultHot,
		Fleet:     defaultFleet,
	}
	r, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	if cfg.Traced {
		printOverhead(r)
	} else {
		saveUntraced(r)
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.correct() || r.failed > 0 {
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
		}
		os.Exit(1)
	}
}

// lastUntracedPath is where an untraced run leaves its end-to-end numbers,
// so a later traced run of the same workload and seed can report its own
// overhead against them.
func lastUntracedPath(cfg runConfig) string {
	return filepath.Join(cfg.Artifacts, "last", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
}

func saveUntraced(r *run) {
	path := lastUntracedPath(r.cfg)
	data, err := json.Marshal(r.values)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: keep untraced result: %v\n", err)
	}
}

// printOverhead compares the traced run's end-to-end numbers with the last
// untraced run of the same workload and seed, when one exists.
func printOverhead(r *run) {
	data, err := os.ReadFile(lastUntracedPath(r.cfg))
	if err != nil {
		fmt.Printf("overhead n/a: no untraced run of %s seed %d in this checkout\n", r.cfg.Workload, r.cfg.Seed)
		return
	}
	var base map[string]float64
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Printf("overhead n/a: %v\n", err)
		return
	}
	for _, m := range endToEnd {
		if b := base[m.Name]; b > 0 {
			fmt.Printf("overhead %s %+.1f%% (traced %.4g vs untraced %.4g %s)\n",
				m.Name, (r.values[m.Name]/b-1)*100, r.values[m.Name], b, m.Unit)
		}
	}
}
