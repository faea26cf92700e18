// Package chaos is the end-to-end self-healing harness: it runs a sweep
// across a supervised worker fleet while murdering workers and firing
// network faults, and proves the run's results are byte-identical to a
// serial, fault-free baseline — the determinism guarantee the paper's
// experiment tables rest on does not bend under infrastructure failure.
//
// One Run performs four acts:
//
//  1. Serial baseline: every experiment computed in-process on a fresh
//     cell cache; its documents are the ground truth.
//  2. Chaos sweep: a supervised local fleet (dist.Supervisor) computes the
//     same experiments through a coordinator with health probing, failover
//     and dispatch rounds, persisting cells into a content-addressed
//     store — while a killer goroutine SIGKILLs random workers (waiting
//     for the fleet to heal between murders) and an optional faults.Plan
//     injects network chaos on the coordinator's transport. Every document
//     must equal the baseline byte for byte, and no cell may be lost.
//  3. Health check: after the sweep, every (restarted) worker must be
//     re-admitted by the prober, and the store seals to a Merkle root.
//  4. Warm replay: a fresh cache served purely from the store recomputes
//     nothing, reproduces the same documents, and reseals to the same
//     root — proving the chaos run persisted exactly the truth.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sync/atomic"
	"time"

	"ignite/internal/dist"
	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/store"
)

// Options configures one chaos run.
type Options struct {
	// Experiments to sweep (default: all registered).
	Experiments []experiments.ID
	// Opt is the experiment configuration shared by the baseline, chaos
	// and warm passes (workloads, parallelism). Cache is overridden per
	// pass.
	Opt experiments.Options
	// Workers is the supervised fleet size (default 2; must be >= 2 so a
	// murdered worker always leaves a live peer).
	Workers int
	// StoreDir is the persistent cell store directory (required).
	StoreDir string
	// Kills is how many SIGKILLs the killer fires (default 2). KillEvery
	// spaces them (default 2s); after each murder the killer waits for the
	// fleet to heal before the next.
	Kills     int
	KillEvery time.Duration
	// Seed drives the killer's victim selection.
	Seed int64
	// Command builds a worker process for the supervisor (required for
	// test binaries, which cannot re-exec themselves with bench flags).
	Command func(addr string) (*exec.Cmd, error)
	// Net optionally injects network faults (conn-reset, slow-net,
	// truncated-body, garbage-json) on the coordinator's transport.
	Net *faults.Plan
	// Log receives harness progress (default: stderr).
	Log func(format string, args ...any)
}

// Report is a chaos run's outcome. Run returns a non-nil Report only when
// every guarantee held.
type Report struct {
	Experiments int              // experiments swept (x3 passes)
	Kills       int              // workers actually SIGKILLed
	Restarts    uint64           // supervisor restarts performed
	Tasks       uint64           // cells the coordinator completed remotely
	Failovers   uint64           // attempts failed over to another worker
	Health      dist.HealthStats // coordinator self-healing counters
	Root        string           // sealed Merkle root after the chaos pass
	WarmRoot    string           // sealed Merkle root after the warm replay
}

func (o Options) withDefaults() (Options, error) {
	if o.StoreDir == "" {
		return o, fmt.Errorf("chaos: StoreDir is required")
	}
	if len(o.Experiments) == 0 {
		o.Experiments = experiments.IDs()
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Workers < 2 {
		return o, fmt.Errorf("chaos: need >= 2 workers so a murdered worker leaves a live peer")
	}
	if o.Kills <= 0 {
		o.Kills = 2
	}
	if o.KillEvery <= 0 {
		o.KillEvery = 2 * time.Second
	}
	if o.Log == nil {
		o.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "chaos: "+format+"\n", args...)
		}
	}
	return o, nil
}

// docBytes canonicalizes one experiment document for byte-identity checks
// (GoVersion cleared: it is environment, not result).
func docBytes(res *experiments.Result, opt experiments.Options) ([]byte, error) {
	man := opt.Manifest()
	man.GoVersion = ""
	return res.Document(man).Encode()
}

// sweep runs the experiment list over opt, comparing each document to
// baseline (nil baseline: record instead of compare). It fails on any lost
// cell. Returns the documents by experiment.
func sweep(ctx context.Context, ids []experiments.ID, opt experiments.Options, baseline map[experiments.ID][]byte, pass string) (map[experiments.ID][]byte, error) {
	docs := make(map[experiments.ID][]byte, len(ids))
	for _, id := range ids {
		res, err := experiments.Run(ctx, id, opt)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s pass, experiment %s: %w", pass, id, err)
		}
		if len(res.Failures) != 0 {
			return nil, fmt.Errorf("chaos: %s pass, experiment %s: %d lost cell(s): %v", pass, id, len(res.Failures), res.Failures)
		}
		doc, err := docBytes(res, opt)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s pass, experiment %s: encode: %w", pass, id, err)
		}
		if baseline != nil && !bytes.Equal(doc, baseline[id]) {
			return nil, fmt.Errorf("chaos: %s pass, experiment %s: document differs from serial baseline (%s)", pass, id, diffContext(baseline[id], doc))
		}
		docs[id] = doc
	}
	return docs, nil
}

// diffContext renders the first divergence between two documents for the
// mismatch error.
func diffContext(want, got []byte) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			lo, hi := i-80, i+160
			if lo < 0 {
				lo = 0
			}
			clip := func(b []byte) string {
				h := hi
				if h > len(b) {
					h = len(b)
				}
				return string(b[lo:h])
			}
			return fmt.Sprintf("first diff at byte %d: baseline ...%s... vs ...%s...", i, clip(want), clip(got))
		}
	}
	return fmt.Sprintf("lengths differ: baseline %d, got %d", len(want), len(got))
}

// waitHealthy polls until every worker is up, the deadline passes, or
// stop closes.
func waitHealthy(coord *dist.Coordinator, timeout time.Duration, stop <-chan struct{}) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if coord.WorkersHealthy() {
			return true
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-stop:
			return coord.WorkersHealthy()
		}
	}
	return coord.WorkersHealthy()
}

// Run executes the chaos harness; see the package comment for the acts.
func Run(ctx context.Context, o Options) (*Report, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	ids := o.Experiments

	// Act 1: serial baseline.
	o.Log("baseline: %d experiment(s), in-process", len(ids))
	base := o.Opt
	base.Cache = experiments.NewCellCache()
	baseline, err := sweep(ctx, ids, base, nil, "baseline")
	if err != nil {
		return nil, err
	}

	// Act 2: the chaos sweep.
	sup, err := dist.StartSupervisor(dist.SupervisorOptions{
		Workers:        o.Workers,
		Command:        o.Command,
		RestartBackoff: 100 * time.Millisecond,
		Log:            func(format string, args ...any) { o.Log("supervisor: "+format, args...) },
	})
	if err != nil {
		return nil, err
	}
	defer sup.Close()
	coord, err := dist.NewCoordinator(dist.CoordinatorOptions{
		Addrs:         sup.Addrs(),
		Client:        &http.Client{Transport: faults.NewTransport(o.Net, nil)},
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	st, err := store.Open(o.StoreDir)
	if err != nil {
		return nil, err
	}

	chaosOpt := o.Opt
	chaosOpt.Cache = experiments.NewCellCache()
	experiments.BindStore(chaosOpt.Cache, st, &experiments.StoreStats{})
	chaosOpt.Cache.SetRemote(coord.Remote())

	var killed atomic.Int64
	sweepDone := make(chan struct{})
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		rng := rand.New(rand.NewSource(o.Seed))
		for k := 0; k < o.Kills; k++ {
			select {
			case <-time.After(o.KillEvery):
			case <-sweepDone:
				return
			}
			victim := rng.Intn(o.Workers)
			if err := sup.Kill(victim); err != nil {
				o.Log("kill worker %d: %v", victim, err)
				continue
			}
			killed.Add(1)
			o.Log("SIGKILLed worker %d", victim)
			// Wait for the supervisor to resurrect the victim and the
			// prober to re-admit it before the next murder, so the fleet
			// never drops below one live worker.
			if !waitHealthy(coord, 15*time.Second, sweepDone) {
				o.Log("worker %d not re-admitted in time", victim)
			}
		}
	}()

	o.Log("chaos sweep: %d worker(s), %d kill(s) planned", o.Workers, o.Kills)
	_, err = sweep(ctx, ids, chaosOpt, baseline, "chaos")
	close(sweepDone)
	<-killerDone
	if err != nil {
		return nil, err
	}

	// Act 3: the whole fleet must be re-admitted, then seal.
	if !waitHealthy(coord, 15*time.Second, nil) {
		return nil, fmt.Errorf("chaos: fleet not fully re-admitted after the sweep (restarts=%d, health=%+v)",
			sup.Restarts(), coord.Health())
	}
	root, n, err := st.Seal()
	if err != nil {
		return nil, fmt.Errorf("chaos: seal store: %w", err)
	}
	o.Log("sealed %d record(s), merkle root %s", n, root)

	// Act 4: warm replay from the store alone — no fleet, no compute.
	warmOpt := o.Opt
	warmOpt.Cache = experiments.NewCellCache()
	warmStats := &experiments.StoreStats{}
	experiments.BindStore(warmOpt.Cache, st, warmStats)
	if _, err := sweep(ctx, ids, warmOpt, baseline, "warm"); err != nil {
		return nil, err
	}
	if misses, saves := warmStats.Misses.Value(), warmStats.Saves.Value(); misses != 0 || saves != 0 {
		return nil, fmt.Errorf("chaos: warm replay missed %d cell(s) and saved %d record(s), want 0 and 0", misses, saves)
	}
	warmRoot, _, err := st.Seal()
	if err != nil {
		return nil, fmt.Errorf("chaos: reseal store: %w", err)
	}
	if warmRoot != root {
		return nil, fmt.Errorf("chaos: warm replay resealed to root %s, chaos pass sealed %s", warmRoot, root)
	}

	tasks, failovers := coord.Stats()
	return &Report{
		Experiments: len(ids),
		Kills:       int(killed.Load()),
		Restarts:    sup.Restarts(),
		Tasks:       tasks,
		Failovers:   failovers,
		Health:      coord.Health(),
		Root:        root,
		WarmRoot:    warmRoot,
	}, nil
}
