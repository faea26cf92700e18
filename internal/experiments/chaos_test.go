package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ignite/internal/faults"
	"ignite/internal/obs"
)

// chaosOpts is quickOpts shrunk further: chaos tests run whole experiment
// sweeps, so every cycle counts under the race detector.
func chaosOpts(t *testing.T) Options {
	t.Helper()
	opt := quickOpts(t)
	for i := range opt.Workloads {
		opt.Workloads[i].TargetInstr /= 4
	}
	return opt
}

// docBytes encodes a result document with the toolchain-dependent manifest
// fields cleared, for byte-level comparisons.
func docBytes(t *testing.T, res *Result, opt Options) []byte {
	t.Helper()
	man := opt.Manifest()
	man.GoVersion = ""
	data, err := res.Document(man).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func findResult(t *testing.T, results []*Result, id ID) *Result {
	t.Helper()
	for _, r := range results {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no result for %s", id)
	return nil
}

// TestChaosSmokeSweep runs every registered experiment under the canonical
// smoke fault plan (a panic in fig1, a one-trip transient in fig8, a 30s
// slow cell in fig3) with ContinueOnError and a per-cell deadline. The run
// must survive all three faults: exactly the injected cells degrade, the
// transient cell succeeds on retry with bit-identical values, and every
// healthy row matches a clean run. Setting IGNITE_FAULTS to a custom spec
// swaps in that plan instead; the smoke-site assertions then relax to
// "the sweep survives".
func TestChaosSmokeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	spec := os.Getenv(faults.EnvVar)
	plan, err := faults.FromEnvSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	smoke := plan == nil || spec == "smoke"
	if plan == nil {
		plan = faults.Smoke()
	}

	opt := chaosOpts(t)
	opt.Parallel = 4
	opt.Cache = NewCellCache()
	opt.FailurePolicy = ContinueOnError
	opt.CellTimeout = 2 * time.Second
	opt.Faults = plan
	opt.Health = new(obs.RunHealth)

	results, err := RunAll(context.Background(), nil, opt)
	if err != nil {
		t.Fatalf("chaos sweep errored despite ContinueOnError: %v", err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("chaos sweep returned %d results, want %d", len(results), len(IDs()))
	}
	if !smoke {
		t.Logf("custom %s plan armed; skipping smoke-site assertions", faults.EnvVar)
		return
	}

	// Clean reference runs for the degraded figures.
	cleanOpt := chaosOpts(t)
	cleanOpt.Parallel = 4
	cleanOpt.Cache = NewCellCache()
	cleanFig1, err := Run(context.Background(), "fig1", cleanOpt)
	if err != nil {
		t.Fatal(err)
	}
	cleanFig8, err := Run(context.Background(), "fig8", cleanOpt)
	if err != nil {
		t.Fatal(err)
	}

	// fig1: the injected panic fails exactly Fib-G/b2b; Auth-G survives
	// with values identical to the clean run.
	fig1 := findResult(t, results, "fig1")
	if len(fig1.Failures) != 1 {
		t.Fatalf("fig1 failures = %+v, want exactly the injected panic cell", fig1.Failures)
	}
	f := fig1.Failures[0]
	if f.Workload != "Fib-G" || f.Config != "b2b" || f.Status != StatusFailed {
		t.Errorf("fig1 degraded cell = %+v, want Fib-G/b2b failed", f)
	}
	if !strings.Contains(f.Err, "panic") {
		t.Errorf("fig1 failure lost the panic cause: %s", f.Err)
	}
	if _, ok := fig1.Values["Fib-G/interleaved"]; ok {
		t.Error("fig1 kept a partial Fib-G row despite its failed cell")
	}
	for _, row := range []string{"Auth-G/back-to-back", "Auth-G/interleaved", "Auth-G"} {
		if !reflect.DeepEqual(fig1.Values[row], cleanFig1.Values[row]) {
			t.Errorf("fig1 healthy row %q diverged from clean run:\nchaos: %v\nclean: %v",
				row, fig1.Values[row], cleanFig1.Values[row])
		}
	}

	// fig8: the transient cleared after one trip, so the whole figure is
	// healthy and bit-identical to the clean run.
	fig8 := findResult(t, results, "fig8")
	if len(fig8.Failures) != 0 {
		t.Fatalf("fig8 failures = %+v, want none (transient must clear on retry)", fig8.Failures)
	}
	if !reflect.DeepEqual(fig8.Values, cleanFig8.Values) {
		t.Error("fig8 values diverged from clean run after a retried transient")
	}
	retried := false
	for _, cm := range fig8.Cells {
		if cm.Workload == "Auth-G" && cm.Config == "ignite" {
			retried = cm.Status == string(StatusRetried) && cm.Attempts == 2
		}
	}
	if !retried {
		t.Error("fig8 Auth-G/ignite cell is not marked retried with 2 attempts")
	}

	// fig3: the 30s slow cell overran the 2s deadline and failed.
	fig3 := findResult(t, results, "fig3")
	if len(fig3.Failures) != 1 {
		t.Fatalf("fig3 failures = %+v, want exactly the injected slow cell", fig3.Failures)
	}
	f = fig3.Failures[0]
	if f.Workload != "Fib-G" || f.Config != "jukebox" || f.Status != StatusFailed {
		t.Errorf("fig3 degraded cell = %+v, want Fib-G/jukebox failed", f)
	}
	if !strings.Contains(f.Err, "deadline") {
		t.Errorf("fig3 failure lost the deadline cause: %s", f.Err)
	}

	// Health counters saw each fault class.
	h := opt.Health
	if h.Panics.Load() < 1 || h.Retries.Load() < 1 || h.Deadlines.Load() < 1 || h.Failed.Load() < 2 {
		t.Errorf("health counters missed faults: panics=%d retries=%d deadlines=%d failed=%d",
			h.Panics.Load(), h.Retries.Load(), h.Deadlines.Load(), h.Failed.Load())
	}

	// No other experiment degraded.
	for _, res := range results {
		if res.ID == "fig1" || res.ID == "fig3" {
			continue
		}
		if len(res.Failures) != 0 {
			t.Errorf("%s degraded unexpectedly: %+v", res.ID, res.Failures)
		}
	}
}

// TestChaosPanicFailFast asserts the default policy turns an injected panic
// into a structured error instead of crashing the process.
func TestChaosPanicFailFast(t *testing.T) {
	opt := chaosOpts(t)
	plan, err := faults.Parse("panic@fig1/Fib-G/b2b")
	if err != nil {
		t.Fatal(err)
	}
	opt.Faults = plan
	_, err = Run(context.Background(), "fig1", opt)
	if err == nil {
		t.Fatal("fig1 succeeded despite injected panic")
	}
	var cerr *CellError
	if !errors.As(err, &cerr) {
		t.Fatalf("panic did not surface as *CellError: %v", err)
	}
	if cerr.Workload != "Fib-G" || cerr.Config != "b2b" {
		t.Errorf("CellError names %s/%s, want Fib-G/b2b", cerr.Workload, cerr.Config)
	}
	var perr *faults.PanicError
	if !errors.As(err, &perr) {
		t.Errorf("CellError does not unwrap to *faults.PanicError: %v", err)
	}
}

// TestChaosDeterministicAggregationParallel8 runs fig8 twice at width 8
// under a fresh transient fault each time: documents must be byte-identical
// across runs — retry, backoff, and wide scheduling may not perturb results.
func TestChaosDeterministicAggregationParallel8(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig8 twice")
	}
	run := func() []byte {
		opt := chaosOpts(t)
		opt.Parallel = 8
		opt.Cache = NewCellCache()
		plan, err := faults.Parse("transient@fig8/Auth-G/ignite:trips=1")
		if err != nil {
			t.Fatal(err)
		}
		opt.Faults = plan
		res, err := Run(context.Background(), "fig8", opt)
		if err != nil {
			t.Fatal(err)
		}
		return docBytes(t, res, opt)
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Error("fig8 documents differ across identical chaos runs at Parallel=8")
	}
}

// TestChaosCellTimeoutMarksDeadline asserts the per-cell deadline fails a
// cell whose injected delay honors context cancellation, and that the
// health counter classifies it as a deadline hit.
func TestChaosCellTimeoutMarksDeadline(t *testing.T) {
	opt := chaosOpts(t)
	opt.FailurePolicy = ContinueOnError
	opt.CellTimeout = 100 * time.Millisecond
	opt.Health = new(obs.RunHealth)
	plan, err := faults.Parse("slow@fig1/Fib-G/b2b:delay=30s")
	if err != nil {
		t.Fatal(err)
	}
	opt.Faults = plan
	res, err := Run(context.Background(), "fig1", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Config != "b2b" {
		t.Fatalf("failures = %+v, want the delayed Fib-G/b2b cell", res.Failures)
	}
	if !strings.Contains(res.Failures[0].Err, "deadline") {
		t.Errorf("failure lost the deadline cause: %s", res.Failures[0].Err)
	}
	if opt.Health.Deadlines.Load() != 1 {
		t.Errorf("deadline counter = %d, want 1", opt.Health.Deadlines.Load())
	}
}

// TestChaosMaxCyclesWatchdog runs fig1 with an absurdly small cycle budget:
// every cell must abort with the engine watchdog error instead of hanging,
// and ContinueOnError must still deliver a (fully degraded) result.
func TestChaosMaxCyclesWatchdog(t *testing.T) {
	opt := chaosOpts(t)
	opt.FailurePolicy = ContinueOnError
	opt.MaxCycles = 100
	res, err := Run(context.Background(), "fig1", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 4 {
		t.Fatalf("failures = %d, want all 4 cells over the cycle budget", len(res.Failures))
	}
	for _, f := range res.Failures {
		if !strings.Contains(f.Err, "cycle budget") {
			t.Errorf("%s/%s failure is not the watchdog: %s", f.Workload, f.Config, f.Err)
		}
	}
	for _, row := range []string{"Fib-G/interleaved", "Auth-G/interleaved"} {
		if _, ok := res.Values[row]; ok {
			t.Errorf("fully degraded fig1 still has value row %q", row)
		}
	}
}

// TestSchedulerCancellationSkips submits cells to an already-canceled run:
// none may execute, all must be recorded as skipped.
func TestSchedulerCancellationSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Parallel: 2, Health: new(obs.RunHealth)}
	s := newScheduler(ctx, "test", opt)
	for i := 0; i < 3; i++ {
		s.submit("wl", fmt.Sprintf("c%d", i), func(context.Context, int) error {
			t.Error("cell ran despite canceled context")
			return nil
		})
	}
	outs := s.wait()
	if len(outs) != 3 {
		t.Fatalf("recorded %d outcomes, want 3", len(outs))
	}
	for i, o := range outs {
		if o.status != StatusSkipped {
			t.Errorf("outcome %d status = %s, want skipped", i, o.status)
		}
		if o.config != fmt.Sprintf("c%d", i) {
			t.Errorf("outcome %d is %s, want submission order preserved", i, o.config)
		}
	}
	if n := opt.Health.Skipped.Load(); n != 3 {
		t.Errorf("skipped counter = %d, want 3", n)
	}
}

// TestSchedulerFailFastSkipsQueued holds the single worker slot on a cell
// that then fails: every queued cell must be skipped, never executed.
func TestSchedulerFailFastSkipsQueued(t *testing.T) {
	opt := Options{Parallel: 1, Retries: -1}
	s := newScheduler(context.Background(), "test", opt)
	running := make(chan struct{})
	release := make(chan struct{})
	s.submit("wl", "fail", func(context.Context, int) error {
		close(running)
		<-release
		return errors.New("boom")
	})
	<-running
	for i := 0; i < 3; i++ {
		s.submit("wl", fmt.Sprintf("q%d", i), func(context.Context, int) error {
			t.Errorf("queued cell q%d ran after the failure", i)
			return nil
		})
	}
	close(release)
	outs := s.wait()
	if len(outs) != 4 {
		t.Fatalf("recorded %d outcomes, want 4", len(outs))
	}
	if outs[0].status != StatusFailed {
		t.Errorf("first outcome = %s, want failed", outs[0].status)
	}
	for _, o := range outs[1:] {
		if o.status != StatusSkipped {
			t.Errorf("queued cell %s status = %s, want skipped", o.config, o.status)
		}
	}
	err := joinOutcomes(outs, nil)
	var cerr *CellError
	if !errors.As(err, &cerr) || !strings.Contains(err.Error(), "boom") {
		t.Errorf("joined error lost the cause: %v", err)
	}
}

// TestSchedulerRetriesTransient asserts a transient failure is retried with
// the attempt count recorded, while a plain error is not retried.
func TestSchedulerRetriesTransient(t *testing.T) {
	opt := Options{Parallel: 1, Health: new(obs.RunHealth)}
	s := newScheduler(context.Background(), "test", opt)
	calls := 0
	s.submit("wl", "flaky", func(_ context.Context, attempt int) error {
		calls++
		if attempt == 1 {
			return &faults.TransientError{Site: faults.Site{Workload: "wl", Config: "flaky"}, Trip: 1}
		}
		return nil
	})
	outs := s.wait()
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2", calls)
	}
	if outs[0].status != StatusRetried || outs[0].attempts != 2 {
		t.Errorf("outcome = %s/%d attempts, want retried/2", outs[0].status, outs[0].attempts)
	}
	if n := opt.Health.Retries.Load(); n != 1 {
		t.Errorf("retry counter = %d, want 1", n)
	}

	s2 := newScheduler(context.Background(), "test", opt)
	calls = 0
	s2.submit("wl", "hard", func(context.Context, int) error {
		calls++
		return errors.New("not transient")
	})
	outs = s2.wait()
	if calls != 1 {
		t.Errorf("non-transient error retried: fn ran %d times", calls)
	}
	if outs[0].status != StatusFailed {
		t.Errorf("outcome = %s, want failed", outs[0].status)
	}
}

// TestParseFailurePolicy covers the CLI spellings.
func TestParseFailurePolicy(t *testing.T) {
	for spec, want := range map[string]FailurePolicy{
		"":                  FailFast,
		"fail-fast":         FailFast,
		"failfast":          FailFast,
		"continue":          ContinueOnError,
		"continue-on-error": ContinueOnError,
	} {
		got, err := ParseFailurePolicy(spec)
		if err != nil || got != want {
			t.Errorf("ParseFailurePolicy(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := ParseFailurePolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}
