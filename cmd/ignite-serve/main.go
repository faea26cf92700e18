// Command ignite-serve is the invocation-serving daemon: a long-running
// HTTP/JSON server that accepts invocation requests for named functions
// (the Table-1 workloads plus tweak overrides), coalesces concurrent
// requests for the same simulation cell onto one flight (one engine run
// that every request arriving while it computes joins), and answers with
// per-invocation latency/CPI/traffic results.
//
// Usage:
//
//	ignite-serve                                  # listen on :8080
//	ignite-serve -addr :9000 -parallel 4
//	ignite-serve -target-instr 20000              # small cells (CI smoke)
//	ignite-serve -population 42,1000              # also serve a sampled fleet population
//	IGNITE_FAULTS='transient:serve/*/*:n=3' ignite-serve   # chaos drill
//
// Endpoints: POST /v1/invoke, GET /v1/catalog, GET /metrics, GET /healthz.
// SIGTERM/Ctrl-C drains: the listener stops, in-flight requests answer,
// every flight finishes computing, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ignite/internal/cfgcli"
	"ignite/internal/fleet/population"
	"ignite/internal/serve"
	"ignite/internal/workload"
)

// drainGrace bounds the SIGTERM drain: in-flight requests get this long to
// be answered before the process gives up.
const drainGrace = 30 * time.Second

// parsePopulation resolves -population "seed,N" into servable specs.
func parsePopulation(s string) ([]workload.Spec, error) {
	if s == "" {
		return nil, nil
	}
	seedStr, nStr, ok := strings.Cut(s, ",")
	if !ok {
		return nil, cfgcli.Usage("ignite-serve: -population wants \"seed,N\", got %q", s)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64)
	if err != nil {
		return nil, cfgcli.Usage("ignite-serve: -population seed: %v", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(nStr))
	if err != nil || n <= 0 {
		return nil, cfgcli.Usage("ignite-serve: -population size %q (want N > 0)", nStr)
	}
	fns, err := population.Sample(population.Params{Seed: seed, N: n})
	if err != nil {
		return nil, err
	}
	return population.Specs(fns), nil
}

func main() {
	cf := cfgcli.New()
	cf.BindCore(flag.CommandLine)
	addrFlag := flag.String("addr", ":8080", "listen address (\":0\" for an ephemeral port)")
	queueFlag := flag.Int("queue", 0, "cells that may wait for a worker; a new cell past them sheds with 429 (0 = default 1024)")
	timeoutFlag := flag.Duration("request-timeout", 0, "default per-request deadline (0 = 60s)")
	popFlag := flag.String("population", "", "serve a sampled fleet population alongside Table 1, as \"seed,N\" (e.g. \"42,1000\")")
	flag.Parse()

	plan, err := cfgcli.FaultsFromEnv()
	if err != nil {
		cfgcli.Exit("ignite-serve", nil, err)
	}
	pop, err := parsePopulation(*popFlag)
	if err != nil {
		cfgcli.Exit("ignite-serve", nil, err)
	}

	ctx, stop := cfgcli.SignalContext()
	defer stop()

	srv := serve.NewServer(serve.Config{
		Addr:           *addrFlag,
		TargetInstr:    cf.TargetInstr,
		Checks:         cf.ChecksEnabled(),
		MaxCycles:      cf.MaxCycles,
		Faults:         plan,
		Workers:        cf.Parallel,
		Queue:          *queueFlag,
		RequestTimeout: *timeoutFlag,
		Population:     pop,
	})
	if err := srv.Start(); err != nil {
		cfgcli.Exit("ignite-serve", nil, err)
	}
	fmt.Fprintf(os.Stderr, "ignite-serve: listening on %s\n", srv.Addr())
	if len(pop) > 0 {
		fmt.Fprintf(os.Stderr, "ignite-serve: serving %d sampled population function(s)\n", len(pop))
	}

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "ignite-serve: draining")
	start := time.Now()
	grace, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	if err := srv.Shutdown(grace); err != nil {
		fmt.Fprintf(os.Stderr, "ignite-serve: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ignite-serve: drained in %.1fs\n", time.Since(start).Seconds())
}
