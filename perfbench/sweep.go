package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/store"
	"ignite/internal/workload"
)

// sweepParams sizes the sweep workload.
type sweepParams struct {
	// Functions are the Table-1 functions swept. The workload seed re-draws
	// their program-generator seeds, so each seed gets different programs
	// of the same shape (runtime, working sets, budget) and the same cost.
	Functions []string
	// TargetInstr replaces the Table-1 budgets so that several cold sweeps
	// fit in one measured window.
	TargetInstr uint64
	// IDs are the experiments run; nil runs every registered experiment.
	IDs []experiments.ID
	// Setups is the number of set-ups (a warm-up and a fresh store each),
	// which also caps the number of pairs in the window.
	Setups int
	// Golden is the directory holding sweep-seed<n>.sha256 digests; empty
	// skips the golden comparison (shrunk test configurations).
	Golden string
}

var defaultSweep = sweepParams{
	Functions:   []string{"AES-P", "Auth-G"},
	TargetInstr: 50_000,
	Setups:      5,
	Golden:      filepath.Join("perfbench", "golden"),
}

// sweepSpecs derives the swept functions from the workload seed.
func sweepSpecs(p sweepParams, seed uint64) ([]workload.Spec, error) {
	rng := rand.New(rand.NewPCG(seed, 0x7377656570)) // "sweep"
	specs := make([]workload.Spec, 0, len(p.Functions))
	for _, name := range p.Functions {
		s, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		s.Gen.Seed = rng.Uint64()
		s.TargetInstr = p.TargetInstr
		specs = append(specs, s)
	}
	return specs, nil
}

// sweepResult is what one pass over the experiments produced.
type sweepResult struct {
	digest string
	docs   []obs.Document
}

// runSweep measures cold sweeps (empty cache, empty store) each followed by
// a warm rerun (a new cache over the same store, as a second process would
// see it), for as many pairs as fit in the window.
func runSweep(ctx context.Context, r *run) error {
	p := r.cfg.Sweep
	specs, err := sweepSpecs(p, r.cfg.Seed)
	if err != nil {
		return err
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = fmt.Sprintf("%s(gen seed %d)", s.Name, s.Gen.Seed)
	}
	r.printf("inputs functions=%s targetInstr=%d experiments=%d", strings.Join(names, ","),
		p.TargetInstr, len(sweepIDs(p)))

	// Set-up, once per pair that may run: warm the process with a cold fig1
	// over the same functions on a throwaway cache and store, then open the
	// fresh store and bind the fresh cache that pair's cold sweep will use.
	type prepared struct {
		dir string
		st  *store.Store
		cc  *experiments.CellCache
	}
	var preps []prepared
	var setups []float64
	for i := 0; i < p.Setups; i++ {
		start := time.Now()
		if err := r.warmUp(ctx, specs, filepath.Join(r.tmp, fmt.Sprintf("warmup-%d", i))); err != nil {
			return err
		}
		dir := filepath.Join(r.tmp, fmt.Sprintf("store-%d", i))
		st, cc, err := r.openStore(dir)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		r.span("setup", 0, start, time.Now())
		preps = append(preps, prepared{dir, st, cc})
	}
	r.timing("setup_s", median(setups), len(setups))

	w, err := r.openWindow()
	if err != nil {
		return err
	}
	var cold, warm []float64
	var coldDigests, warmDigests []string
	var last *sweepResult
	var lastCache *experiments.CellCache // the one cold cache retained_mb measures
	for i, pr := range preps {
		start := time.Now()
		c, err := r.sweepOnce(ctx, specs, p, pr.cc, pr.st, "cold")
		if err != nil {
			return err
		}
		cold = append(cold, ms(time.Since(start)))

		start = time.Now()
		st, cc, err := r.openStore(pr.dir)
		if err != nil {
			return err
		}
		wres, err := r.sweepOnce(ctx, specs, p, cc, st, "warm")
		if err != nil {
			return err
		}
		warm = append(warm, ms(time.Since(start)))
		coldDigests = append(coldDigests, c.digest)
		warmDigests = append(warmDigests, wres.digest)
		last, lastCache = c, pr.cc
		preps[i].cc = nil
		// Start another pair only if one more of average length still ends
		// inside the window.
		spent := time.Since(w.start)
		if spent+spent/time.Duration(i+1) > r.cfg.Window {
			break
		}
	}
	if err := r.closeWindow(w, 0); err != nil {
		return err
	}
	r.phase("cold-sweep", len(cold), len(cold))
	r.phase("warm-rerun", len(warm), len(warm))
	r.timing("cold_p50_ms", median(cold), len(cold))
	r.timing("warm_p50_ms", median(warm), len(warm))
	preps = nil
	r.set("retained_mb", retainedMB())
	runtime.KeepAlive(lastCache)
	if r.tr != nil {
		r.tr.sweepLayers(r, len(cold))
		if err := r.tr.generatorLayers(r, specs); err != nil {
			return err
		}
	}

	// Correctness: every pass must export the same documents, equal to the
	// golden digest when one is recorded for this seed, and the documents'
	// cells must equal a direct simulation of the same cell.
	start := time.Now()
	defer func() { r.span("check", 0, start, time.Now()) }()
	r.printf("digest %s", coldDigests[0])
	for i := range coldDigests {
		if coldDigests[i] != coldDigests[0] || warmDigests[i] != coldDigests[0] {
			r.problemf("sweep %d: cold digest %.12s, warm digest %.12s, first cold digest %.12s",
				i, coldDigests[i], warmDigests[i], coldDigests[0])
		}
	}
	if p.Golden != "" {
		checkGolden(r, filepath.Join(p.Golden, fmt.Sprintf("sweep-seed%d.sha256", r.cfg.Seed)), coldDigests[0])
	}
	return checkSweepCells(r, specs, last.docs)
}

// warmUp runs a cold fig1 over specs on a throwaway cache and store in dir.
func (r *run) warmUp(ctx context.Context, specs []workload.Spec, dir string) error {
	_, cc, err := r.openStore(dir)
	if err != nil {
		return err
	}
	if _, err := experiments.RunAll(ctx, []experiments.ID{"fig1"}, experiments.Options{Workloads: specs, Cache: cc}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func sweepIDs(p sweepParams) []experiments.ID {
	if p.IDs == nil {
		return experiments.IDs()
	}
	return p.IDs
}

// openStore opens (creating if needed) the store in dir and mounts it
// behind a new cell cache: with the library's own binding untraced, with a
// timing copy of it traced.
func (r *run) openStore(dir string) (*store.Store, *experiments.CellCache, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	cc := experiments.NewCellCache()
	if r.tr == nil {
		experiments.BindStore(cc, st, nil)
	} else {
		cc.SetBacking(&timedBacking{st: st, tr: r.tr})
	}
	return st, cc, nil
}

// sweepOnce runs the experiments once, seals the store and exports every
// document, returning their digest.
func (r *run) sweepOnce(ctx context.Context, specs []workload.Spec, p sweepParams,
	cc *experiments.CellCache, st *store.Store, phase string) (*sweepResult, error) {
	opt := experiments.Options{Workloads: specs, Cache: cc}
	if r.tr != nil {
		opt.Tracer = r.tr
	}
	var results []*experiments.Result
	var err error
	if r.tr == nil {
		results, err = experiments.RunAll(ctx, p.IDs, opt)
	} else {
		results, err = r.tr.runAll(ctx, sweepIDs(p), opt, phase)
	}
	if err != nil {
		return nil, fmt.Errorf("%s sweep: %w", phase, err)
	}
	if _, _, err := st.Seal(); err != nil {
		return nil, err
	}
	docs, digest, err := exportDocs(results, opt.Manifest())
	if err != nil {
		return nil, err
	}
	return &sweepResult{digest: digest, docs: docs}, nil
}

// exportDocs encodes every result document and digests the encodings. The
// manifest's host-dependent fields (timestamp, Go version, scheduler
// width) are cleared, so the digest names the results alone.
func exportDocs(results []*experiments.Result, man obs.Manifest) ([]obs.Document, string, error) {
	man.Generated, man.GoVersion, man.Parallel = "", "", 0
	docs := make([]obs.Document, 0, len(results))
	for _, res := range results {
		docs = append(docs, res.Document(man))
	}
	digest, err := digestDocs(docs)
	return docs, digest, err
}

// digestDocs hashes the encoding of every document, in order.
func digestDocs(docs []obs.Document) (string, error) {
	h := sha256.New()
	for _, doc := range docs {
		data, err := doc.Encode()
		if err != nil {
			return "", fmt.Errorf("export %s: %w", doc.ID, err)
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func checkGolden(r *run, path, digest string) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		r.printf("golden none for seed %d", r.cfg.Seed)
		return
	}
	if err != nil {
		r.problemf("golden: %v", err)
		return
	}
	if want := strings.TrimSpace(string(data)); want != digest {
		r.problemf("documents differ from %s: digest %.12s, golden %.12s", path, digest, want)
		return
	}
	r.printf("golden match %s", path)
}

// checkSweepCells compares, for every swept function, the first exported
// "ignite" cell with a direct sim.New/Run of the same spec.
func checkSweepCells(r *run, specs []workload.Spec, docs []obs.Document) error {
	for _, spec := range specs {
		got, where := findCell(docs, spec.Name, string(sim.KindIgnite))
		if got == nil {
			continue // the selected experiments run no plain ignite cell
		}
		want, err := directCell(spec, sim.KindIgnite)
		if err != nil {
			return err
		}
		if err := sameMetrics(got, want); err != nil {
			r.problemf("%s %s/ignite: %v", where, spec.Name, err)
		}
	}
	return nil
}

func findCell(docs []obs.Document, wl, config string) (map[string]float64, string) {
	for _, d := range docs {
		for _, c := range d.Cells {
			if c.Workload == wl && c.Config == config && c.Status == "" {
				return c.Metrics, d.ID
			}
		}
	}
	return nil, ""
}

// directCell simulates one interleaved cell without the cell cache and
// returns its metric snapshot, built the way the cache builds it.
func directCell(spec workload.Spec, kind sim.Kind) (map[string]float64, error) {
	setup, res, err := simulate(spec, kind)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	setup.RegisterMetrics(reg)
	res.RegisterMetrics(reg, nil)
	return reg.Snapshot().Values(), nil
}

func simulate(spec workload.Spec, kind sim.Kind) (*sim.Setup, *lukewarm.Result, error) {
	setup, err := sim.New(spec, kind)
	if err != nil {
		return nil, nil, err
	}
	res, err := setup.Run(lukewarm.Interleaved)
	if err != nil {
		return nil, nil, err
	}
	return setup, res, nil
}

func sameMetrics(got, want map[string]float64) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return fmt.Errorf("metric %s = %v, direct simulation gives %v", k, g, w)
		}
	}
	return fmt.Errorf("%d metrics exported, direct simulation gives %d", len(got), len(want))
}
