// Package cfgcli centralizes the flag, environment, and exit-code handling
// the ignite CLIs used to duplicate: the shared flag block (-parallel,
// -checks, -workloads, -target-instr and failure-policy knobs), the
// IGNITE_FAULTS / IGNITE_CHECKS environment gates, signal-aware contexts,
// and the exit-code conventions (130 interrupted, 2 usage, 1 failure).
//
// A CLI binds only the groups it needs:
//
//	f := cfgcli.New()
//	f.BindCore(flag.CommandLine)   // -parallel, -checks, -target-instr, -max-cycles
//	f.BindMatrix(flag.CommandLine) // -workloads, -fail-policy, -cell-timeout, -retries
//	flag.Parse()
//	opt, err := f.Options()        // experiments.Options from flags + env
package cfgcli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ignite/internal/check"
	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/obs"
	"ignite/internal/workload"
)

// UsageError marks an error as the caller's fault — Exit maps it to status 2
// the way flag's own parse failures exit.
type UsageError struct{ Err error }

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Usage wraps err as a UsageError.
func Usage(format string, args ...any) error {
	return &UsageError{Err: fmt.Errorf(format, args...)}
}

// SignalContext returns a context canceled by SIGINT/SIGTERM — every ignite
// daemon and batch CLI drains through it.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// FaultsFromEnv arms the deterministic fault-injection plan from
// IGNITE_FAULTS (nil when unset). A malformed spec is a usage error.
func FaultsFromEnv() (*faults.Plan, error) {
	plan, err := faults.FromEnvSpec(os.Getenv(faults.EnvVar))
	if err != nil {
		return nil, &UsageError{Err: err}
	}
	return plan, nil
}

// Flags is the shared flag block. New + Bind* + Parse, then Options.
type Flags struct {
	Parallel    int
	Checks      bool
	TargetInstr uint64
	MaxCycles   uint64

	Workloads   string
	FailPolicy  string
	CellTimeout time.Duration
	Retries     int
}

// New returns a flag block with the default failure policy.
func New() *Flags {
	return &Flags{FailPolicy: "fail-fast"}
}

// BindCore registers the knobs every simulation-running CLI shares.
func (f *Flags) BindCore(fs *flag.FlagSet) {
	fs.IntVar(&f.Parallel, "parallel", 0, "parallel cell simulations (default: NumCPU)")
	fs.BoolVar(&f.Checks, "checks", false, "enable the runtime invariant verifier (also IGNITE_CHECKS=1)")
	fs.Uint64Var(&f.TargetInstr, "target-instr", 0, "override per-invocation instruction budget (0 = each workload's own; CI smoke runs use a small value)")
	fs.Uint64Var(&f.MaxCycles, "max-cycles", 0, "per-invocation engine cycle budget, aborts runaway simulations (0 = unlimited)")
}

// BindMatrix registers the experiment-matrix knobs.
func (f *Flags) BindMatrix(fs *flag.FlagSet) {
	fs.StringVar(&f.Workloads, "workloads", "", "comma-separated function names (default: all 20)")
	fs.StringVar(&f.FailPolicy, "fail-policy", "fail-fast", "cell-failure policy: fail-fast aborts on the first failure, continue completes healthy cells and reports failures per cell")
	fs.DurationVar(&f.CellTimeout, "cell-timeout", 0, "per-cell simulation deadline (0 = none)")
	fs.IntVar(&f.Retries, "retries", 0, "transient-failure retries per cell (0 = default 2, negative disables)")
}

// ChecksEnabled folds the -checks flag with the IGNITE_CHECKS gate.
func (f *Flags) ChecksEnabled() bool {
	return f.Checks || check.EnvEnabled()
}

// WorkloadSpecs resolves -workloads (and the -target-instr override) into
// specs; empty -workloads with no override returns nil, meaning "all".
func (f *Flags) WorkloadSpecs() ([]workload.Spec, error) {
	var specs []workload.Spec
	if f.Workloads != "" {
		for _, name := range strings.Split(f.Workloads, ",") {
			spec, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				return nil, &UsageError{Err: err}
			}
			specs = append(specs, spec)
		}
	}
	if f.TargetInstr > 0 {
		if len(specs) == 0 {
			specs = workload.All()
		}
		for i := range specs {
			specs[i].TargetInstr = f.TargetInstr
		}
	}
	return specs, nil
}

// Options builds experiments.Options from the bound flags and the
// environment gates, with a fresh shared cell cache and health counters.
func (f *Flags) Options() (experiments.Options, error) {
	policy, err := experiments.ParseFailurePolicy(f.FailPolicy)
	if err != nil {
		return experiments.Options{}, &UsageError{Err: err}
	}
	plan, err := FaultsFromEnv()
	if err != nil {
		return experiments.Options{}, err
	}
	specs, err := f.WorkloadSpecs()
	if err != nil {
		return experiments.Options{}, err
	}
	return experiments.Options{
		Workloads:     specs,
		Parallel:      f.Parallel,
		Cache:         experiments.NewCellCache(),
		Checks:        f.ChecksEnabled(),
		FailurePolicy: policy,
		CellTimeout:   f.CellTimeout,
		MaxCycles:     f.MaxCycles,
		Retries:       f.Retries,
		Faults:        plan,
		Health:        new(obs.RunHealth),
	}, nil
}

// Exit terminates the process with the conventional status for err: 130 when
// the run was interrupted (ctx canceled or err wraps context.Canceled), 2
// for usage errors, 1 otherwise. A nil err with a live context returns
// without exiting.
func Exit(name string, ctx context.Context, err error) {
	interrupted := (ctx != nil && ctx.Err() != nil) || errors.Is(err, context.Canceled)
	if interrupted {
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", name)
		os.Exit(130)
	}
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	var ue *UsageError
	if errors.As(err, &ue) {
		os.Exit(2)
	}
	os.Exit(1)
}
