// Command ignite-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	ignite-bench -exp all                # every experiment, all 20 functions
//	ignite-bench -exp fig8,fig9a         # selected experiments
//	ignite-bench -exp fig3 -workloads Auth-G,Curr-N -parallel 4
//	ignite-bench -exp fig1 -out results/ # versioned JSON document per experiment
//	ignite-bench -exp all -progress      # narrate cell completions + ETA
//	ignite-bench -exp all -fail-policy continue -out results/
//	ignite-bench -exp all -store cells/ -out results/   # rerun the same line to resume
//
// With -fail-policy continue, a failing simulation cell degrades its figure
// (the cell is reported, healthy cells complete) instead of aborting the
// whole reproduction. With -store, every computed cell is persisted to a
// content-addressed store as it finishes; running the same command again
// over the same store serves those cells from disk, so an interrupted run
// continues where it stopped. The IGNITE_FAULTS environment variable arms
// deterministic fault injection (see internal/faults) for chaos testing
// these paths.
//
// Ctrl-C cancels cleanly: in-flight simulation cells drain, unstarted ones
// are skipped, and the command exits with status 130. Simulation failures
// exit 1; usage errors exit 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"ignite/internal/cfgcli"
	"ignite/internal/dist"
	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/obs"
	"ignite/internal/store"
	"ignite/internal/workload"
)

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func idList() string {
	var b strings.Builder
	for i, id := range experiments.IDs() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(id))
	}
	return b.String()
}

func main() {
	cf := cfgcli.New()
	cf.BindCore(flag.CommandLine)
	cf.BindMatrix(flag.CommandLine)
	expFlag := flag.String("exp", "all", "comma-separated experiment IDs or 'all' (ids: "+idList()+")")
	listFlag := flag.Bool("list", false, "list experiments and workloads, then exit")
	workerFlag := flag.Bool("worker", false, "run as a distributed-sweep worker: serve cell tasks on -listen until interrupted")
	listenFlag := flag.String("listen", "127.0.0.1:0", "worker listen address (with -worker; :0 picks a free port and prints it)")
	workersFlag := flag.Int("workers", 0, "spawn N supervised local worker processes and distribute cells across them: crashed workers restart with capped backoff on stable addresses")
	workerAddrsFlag := flag.String("worker-addrs", "", "comma-separated addresses of already-running workers (alternative to -workers)")
	storeFlag := flag.String("store", "", "directory of the persistent content-addressed cell store (created if missing)")
	cpuFlag := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this path")
	outFlag := flag.String("out", "", "directory for machine-readable JSON result documents")
	progFlag := flag.Bool("progress", false, "report per-cell completion and ETA on stderr")
	flag.Parse()

	ctx, stop := cfgcli.SignalContext()
	defer stop()

	if *workerFlag {
		// Worker mode: no experiment selection, no documents — just serve
		// cell tasks until the coordinator (or the terminal) interrupts us.
		if err := dist.RunWorker(ctx, *listenFlag); err != nil {
			cfgcli.Exit("ignite-bench", ctx, err)
		}
		return
	}

	if *listFlag {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-6s %s\n", id, experiments.Title(id))
		}
		fmt.Println("workloads:", strings.Join(workload.Names(), " "))
		return
	}

	// One shared cell cache across the selected experiments: cells that
	// recur (the nl baseline appears in five figures) are simulated once.
	opt, err := cf.Options()
	if err != nil {
		cfgcli.Exit("ignite-bench", nil, err)
	}
	policy := opt.FailurePolicy
	var reporter *obs.ProgressReporter
	if *progFlag {
		reporter = obs.NewProgressReporter(os.Stderr)
		opt.Tracer = reporter
	}

	// Persistent content-addressed cell store: warm records serve as pure
	// I/O, fresh cells are persisted (fsynced one at a time, so rerunning
	// an interrupted sweep over the same -store resumes it), and the set is
	// sealed under a Merkle manifest on exit so the next run can prove
	// nothing rotted in between.
	var cellStore *store.Store
	var storeStats *experiments.StoreStats
	if *storeFlag != "" {
		cellStore, err = store.Open(*storeFlag)
		if err != nil {
			cfgcli.Exit("ignite-bench", nil, err)
		}
		if merr := cellStore.ManifestErr(); merr != nil {
			fmt.Fprintf(os.Stderr, "ignite-bench: %v (store records will be recomputed and resealed)\n", merr)
		}
		storeStats = &experiments.StoreStats{}
		experiments.BindStore(opt.Cache, cellStore, storeStats)
	}

	// Distributed sweep: ship fresh cells to worker processes. Cells
	// already in the store never reach the wire — the backing is consulted
	// first — so a warm rerun with -workers is pure local I/O.
	var coord *dist.Coordinator
	var super *dist.Supervisor
	if *workersFlag > 0 || *workerAddrsFlag != "" {
		addrs := splitList(*workerAddrsFlag)
		if *workersFlag > 0 && len(addrs) > 0 {
			cfgcli.Exit("ignite-bench", nil, cfgcli.Usage("ignite-bench: -workers and -worker-addrs are mutually exclusive"))
		}
		if len(addrs) == 0 {
			super, err = dist.StartSupervisor(dist.SupervisorOptions{Workers: *workersFlag})
			if err != nil {
				cfgcli.Exit("ignite-bench", nil, err)
			}
			defer super.Close()
			addrs = super.Addrs()
			fmt.Fprintf(os.Stderr, "spawned %d supervised worker(s): %s\n", len(addrs), strings.Join(addrs, " "))
		}
		// The coordinator's wire inherits the network chaos plan (conn-reset,
		// slow-net, truncated-body, garbage-json rules): a plan without net
		// rules leaves the transport unwrapped.
		client := &http.Client{Transport: faults.NewTransport(opt.Faults, nil)}
		coord, err = dist.NewCoordinator(dist.CoordinatorOptions{Addrs: addrs, Client: client})
		if err != nil {
			cfgcli.Exit("ignite-bench", nil, err)
		}
		defer coord.Close()
		opt.Cache.SetRemote(coord.Remote())
	}

	var ids []experiments.ID
	if *expFlag == "all" {
		ids = experiments.IDs()
	} else {
		for _, raw := range strings.Split(*expFlag, ",") {
			id := experiments.ID(strings.TrimSpace(raw))
			if _, ok := experiments.Lookup(id); !ok {
				fmt.Fprintln(os.Stderr, &experiments.UnknownIDError{ID: id, Valid: experiments.IDs()})
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	generated := time.Now().UTC().Format(time.RFC3339)
	if *cpuFlag != "" {
		f, err := os.Create(*cpuFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
	}
	var results []*experiments.Result
	failed := false
	for _, id := range ids {
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		res, err := experiments.Run(ctx, id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed = true
			if policy == experiments.ContinueOnError && !errors.Is(err, context.Canceled) {
				continue
			}
			break
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
		printFailures(res)
		if len(res.Failures) > 0 {
			failed = true
		}
		results = append(results, res)
	}
	if *cpuFlag != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", *cpuFlag)
	}
	if reporter != nil {
		cells, hits := reporter.Summary()
		fmt.Fprintf(os.Stderr, "%d cells (%d cache hits)\n", cells, hits)
	}
	printHealth(opt.Health)
	if coord != nil {
		tasks, failovers := coord.Stats()
		fmt.Fprintf(os.Stderr, "dist: %d task(s) completed remotely, %d failover(s)\n", tasks, failovers)
		h := coord.Health()
		fmt.Fprintf(os.Stderr, "dist: %d worker failure(s), %d quarantine(s), %d readmit(s), %d probe(s), %d re-dispatch(es)\n",
			h.Failures, h.Quarantines, h.Readmits, h.Probes, h.Redispatches)
	}
	if super != nil {
		fmt.Fprintf(os.Stderr, "dist: %d worker restart(s)\n", super.Restarts())
	}
	if cellStore != nil {
		fmt.Fprintf(os.Stderr, "store: %d hit(s), %d miss(es), %d save(s), %d corruption(s) detected\n",
			storeStats.Hits.Value(), storeStats.Misses.Value(),
			storeStats.Saves.Value(), storeStats.Corrupt.Value())
		if root, n, err := cellStore.Seal(); err != nil {
			fmt.Fprintf(os.Stderr, "ignite-bench: seal store: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "store: sealed %d record(s), merkle root %s\n", n, root)
		}
	}

	if *outFlag != "" {
		man := opt.Manifest()
		man.Generated = generated
		for _, res := range results {
			path, err := res.Document(man).WriteFile(*outFlag, string(res.ID))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	switch {
	case ctx.Err() != nil:
		fmt.Fprintln(os.Stderr, "ignite-bench: interrupted")
		os.Exit(130)
	case failed:
		os.Exit(1)
	}
}

// printFailures renders a degraded experiment's per-cell failure table.
func printFailures(res *experiments.Result) {
	if len(res.Failures) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %d degraded cell(s):\n", res.ID, len(res.Failures))
	fmt.Fprintf(os.Stderr, "  %-12s %-16s %-8s %-8s %s\n",
		"workload", "config", "status", "attempts", "error")
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "  %-12s %-16s %-8s %-8d %s\n",
			f.Workload, f.Config, f.Status, f.Attempts, f.Err)
	}
}

// printHealth summarizes the run-health counters when anything degraded.
func printHealth(h *obs.RunHealth) {
	p, r, d := h.Panics.Load(), h.Retries.Load(), h.Deadlines.Load()
	f, s := h.Failed.Load(), h.Skipped.Load()
	if p+r+d+f+s == 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"run health: %d panic(s) recovered, %d retry(ies), %d deadline hit(s), %d cell(s) failed, %d skipped\n",
		p, r, d, f, s)
}
