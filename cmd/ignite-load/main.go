// Command ignite-load is the open-loop load generator for ignite-serve: it
// fires invocation requests on a deterministic arrival schedule (Poisson,
// diurnal, or bursty/self-similar) at a target rate, measures latency from
// each request's *scheduled* arrival (so generator lateness counts instead
// of being coordinated-omitted away), and reports p50/p99/p999 plus
// achieved throughput as a versioned JSON document.
//
// Usage:
//
//	ignite-load -url http://127.0.0.1:8080 -rps 1000 -duration 5s
//	ignite-load -rps 10000 -duration 10s -process poisson -out load-report.json
//	ignite-load -function Curr-N -config nl -mode back-to-back -rps 200
//	ignite-load -rps 500 -duration 2s -strict      # exit 1 on any non-2xx
//
// A run has two phases. The prime phase (default 250ms at 2000 req/s,
// disable with -prime-rps 0) fires a Poisson burst at the cold cell; the
// requests that arrive while its simulation computes join that one flight
// in the server's batcher, which is where the reported coalescing ratio
// (batched requests per batch, >1 under any concurrency) comes from. The
// measured phase then drives the schedule against the now-hot cell and
// owns every latency number in the report.
// Server-side numbers are the /metrics deltas scraped around both phases.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"ignite/internal/cfgcli"
	"ignite/internal/loadgen"
	"ignite/internal/obs"
	"ignite/internal/serve"
)

func main() {
	urlFlag := flag.String("url", "http://127.0.0.1:8080", "base URL of the ignite-serve daemon")
	fnFlag := flag.String("function", "Auth-G", "function name to invoke")
	cfgFlag := flag.String("config", "ignite", "front-end configuration")
	modeFlag := flag.String("mode", "interleaved", "inter-invocation mode: interleaved or back-to-back")
	rpsFlag := flag.Float64("rps", 1000, "target request rate of the measured phase")
	durFlag := flag.Duration("duration", 5*time.Second, "measured-phase duration")
	procFlag := flag.String("process", "poisson", "arrival process: poisson, diurnal, bursty")
	seedFlag := flag.Uint64("seed", 1, "arrival-schedule seed (same seed, same schedule)")
	sendersFlag := flag.Int("senders", 64, "sender worker pool size")
	primeRPSFlag := flag.Float64("prime-rps", 2000, "prime-phase Poisson rate at the cold cell (0 disables priming)")
	primeDurFlag := flag.Duration("prime-duration", 250*time.Millisecond, "prime-phase duration")
	timeoutFlag := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	retriesFlag := flag.Int("retries", 0, "max retries per shed (429) request, honoring the server's Retry-After")
	outFlag := flag.String("out", "", "write the JSON load report to this path")
	strictFlag := flag.Bool("strict", false, "exit 1 if any measured request failed (CI smoke)")
	flag.Parse()

	ctx, stop := cfgcli.SignalContext()
	defer stop()

	proc, err := loadgen.ParseProcess(*procFlag)
	if err != nil {
		cfgcli.Exit("ignite-load", nil, cfgcli.Usage("%v", err))
	}
	body, err := json.Marshal(serve.InvokeRequest{
		SchemaVersion: serve.SchemaVersion,
		Function:      *fnFlag,
		Config:        *cfgFlag,
		Mode:          *modeFlag,
	})
	if err != nil {
		cfgcli.Exit("ignite-load", nil, err)
	}
	base := strings.TrimRight(*urlFlag, "/")
	invokeURL := base + serve.PathInvoke

	before, err := scrapeMetrics(base)
	if err != nil {
		cfgcli.Exit("ignite-load", nil, fmt.Errorf("ignite-load: pre-run metrics scrape: %w", err))
	}

	if *primeRPSFlag > 0 && *primeDurFlag > 0 {
		prime, err := loadgen.Run(ctx, loadgen.RunConfig{
			URL:      invokeURL,
			Body:     body,
			Schedule: loadgen.Schedule(loadgen.Poisson, *primeRPSFlag, *primeDurFlag, *seedFlag+1),
			Senders:  *sendersFlag,
			Timeout:  *timeoutFlag,
		})
		if err != nil {
			cfgcli.Exit("ignite-load", ctx, err)
		}
		if prime.OK == 0 {
			cfgcli.Exit("ignite-load", nil, fmt.Errorf(
				"ignite-load: prime phase got no 2xx from %s (statuses: %v)", invokeURL, prime.StatusCount))
		}
		fmt.Fprintf(os.Stderr, "primed %s/%s: %d requests, %d ok\n", *fnFlag, *cfgFlag, prime.Sent, prime.OK)
	}

	schedule := loadgen.Schedule(proc, *rpsFlag, *durFlag, *seedFlag)
	stats, err := loadgen.Run(ctx, loadgen.RunConfig{
		URL:         invokeURL,
		Body:        body,
		Schedule:    schedule,
		Senders:     *sendersFlag,
		Timeout:     *timeoutFlag,
		ShedRetries: *retriesFlag,
	})
	if err != nil {
		cfgcli.Exit("ignite-load", ctx, err)
	}

	report := loadgen.Report{
		Function:    *fnFlag,
		Config:      *cfgFlag,
		Mode:        *modeFlag,
		Process:     string(proc),
		TargetRPS:   *rpsFlag,
		DurationSec: durFlag.Seconds(),
		Seed:        *seedFlag,
		Scheduled:   stats.Scheduled,
		Sent:        stats.Sent,
		OK:          stats.OK,
		Errors:      stats.Errors,
		Retries:     stats.Retries,
		StatusCount: stats.StatusCount,
		AchievedRPS: stats.AchievedRPS(),
		Latency:     loadgen.SummaryFrom(stats.Latency),
	}
	if after, err := scrapeMetrics(base); err != nil {
		fmt.Fprintf(os.Stderr, "ignite-load: post-run metrics scrape failed, serverSide omitted: %v\n", err)
	} else {
		report.ServerSide = serverSide(before, after)
	}

	printSummary(report)
	if *outFlag != "" {
		data, err := report.Encode()
		if err != nil {
			cfgcli.Exit("ignite-load", nil, err)
		}
		if err := obs.WriteFileAtomic(*outFlag, append(data, '\n'), 0o644); err != nil {
			cfgcli.Exit("ignite-load", nil, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *outFlag)
	}
	if ctx.Err() != nil {
		cfgcli.Exit("ignite-load", ctx, nil)
	}
	if *strictFlag && stats.Errors > 0 {
		cfgcli.Exit("ignite-load", nil, fmt.Errorf("ignite-load: %d of %d requests failed (statuses: %v)",
			stats.Errors, stats.Sent, stats.StatusCount))
	}
}

// scrapeMetrics fetches and decodes the daemon's /metrics document.
func scrapeMetrics(base string) (serve.MetricsDocument, error) {
	resp, err := http.Get(base + serve.PathMetrics)
	if err != nil {
		return serve.MetricsDocument{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.MetricsDocument{}, err
	}
	return serve.DecodeMetrics(data)
}

// serverSide computes the serve.* metric deltas across the run.
func serverSide(before, after serve.MetricsDocument) loadgen.ServerSide {
	k := func(name string) string { return name + "{component=serve}" }
	delta := func(name string) float64 { return after.Value(k(name)) - before.Value(k(name)) }
	ss := loadgen.ServerSide{
		Requests:        delta("serve.requests"),
		FastPathHits:    delta("serve.fast_path_hits"),
		Batches:         delta("serve.batches"),
		BatchedRequests: delta("serve.batched_requests"),
		Shed:            delta("serve.shed"),
	}
	if s, ok := after.Get(k("serve.batch_size")); ok {
		ss.MaxBatchSize = s.Max
	}
	if ss.Batches > 0 {
		ss.CoalescingRatio = ss.BatchedRequests / ss.Batches
	}
	return ss
}

// printSummary renders the human-readable percentile table.
func printSummary(r loadgen.Report) {
	fmt.Printf("%s / %s / %s — %s arrivals at %.0f req/s for %.1fs (seed %d)\n",
		r.Function, r.Config, r.Mode, r.Process, r.TargetRPS, r.DurationSec, r.Seed)
	fmt.Printf("  scheduled      %d\n", r.Scheduled)
	fmt.Printf("  sent           %d (%d ok, %d failed, %d retried)\n", r.Sent, r.OK, r.Errors, r.Retries)
	fmt.Printf("  achieved       %.0f req/s\n", r.AchievedRPS)
	fmt.Printf("  latency (ms)   p50 %.3f   p99 %.3f   p999 %.3f   max %.3f\n",
		r.Latency.P50Ms, r.Latency.P99Ms, r.Latency.P999Ms, r.Latency.MaxMs)
	if r.ServerSide.Requests > 0 {
		fmt.Printf("  server         %.0f requests, %.0f fast-path, %.0f batches (%.0f coalesced, ratio %.1f, max %.0f), %.0f shed\n",
			r.ServerSide.Requests, r.ServerSide.FastPathHits, r.ServerSide.Batches,
			r.ServerSide.BatchedRequests, r.ServerSide.CoalescingRatio, r.ServerSide.MaxBatchSize, r.ServerSide.Shed)
	}
}
