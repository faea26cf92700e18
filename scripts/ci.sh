#!/usr/bin/env bash
# Tier-1 gate: build, vet, and run the full test suite under the race
# detector. The cell scheduler runs (workload, config) simulations on a
# bounded worker pool, so every test that goes through internal/experiments
# exercises the concurrent path; -race keeps that path honest.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# Formatting gate: every tracked Go file must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"
# The full suite simulates hundreds of (workload, config) cells; under the
# race detector on a small machine that legitimately exceeds go test's 10m
# default timeout, so set an explicit budget.
go test -race -timeout 30m ./...

# Examples are real programs, not documentation snippets: they must keep
# compiling against the current API (the quickstart and observability
# examples are the first thing a reader runs).
for ex in examples/*/; do
  go build -o /dev/null "./${ex%/}"
done

# JSON export smoke: one tiny experiment through ignite-bench, exported as a
# versioned result document, decoded back by the same schema the golden test
# pins. Artifacts land in a scratch dir so CI runs leave the tree clean.
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/ignite-bench" ./cmd/ignite-bench
(
  cd "$smoke"
  ./ignite-bench \
    -exp fig1 -workloads Fib-G -target-instr 200000 -out results \
    >/dev/null
  test -s results/fig1.json
  grep -q '"schemaVersion": 1' results/fig1.json
  grep -q '"kind": "ignite.experiment-result"' results/fig1.json
)

# Invariant-checking smoke: the same small figure with the runtime verifier
# enabled — every invocation of every cell is audited against the
# conservation laws in internal/check, and any violation aborts the run.
(
  cd "$smoke"
  IGNITE_CHECKS=1 ./ignite-bench \
    -exp fig8 -workloads Fib-G -target-instr 200000 -out results-checked \
    >/dev/null
  test -s results-checked/fig8.json
)

# Bench smoke: every benchmark must still run (one iteration each) — a
# benchmark that panics or no longer compiles is a broken promise to anyone
# comparing against the bench/<pkg>-baseline.txt files benchdiff.sh keeps. The
# internal/fleet/budget package holds the budget market's BenchmarkFrontier,
# internal/cfg the program generator's BenchmarkGenerate and the trace
# walker's BenchmarkWalk, internal/serve the serving wire's warm path
# (BenchmarkWarmInvoke), internal/bpred the branch predictor over a
# committed branch tape (BenchmarkCBP), internal/experiments the codec
# study's recorder run (BenchmarkAblCodec).
go test -run '^$' -bench=. -benchtime=1x ./internal/engine ./internal/fleet/budget ./internal/cfg ./internal/serve ./internal/bpred ./internal/experiments

# The repo benchmark (perfbench/) is its own module built against this one
# (replace ignite => ../): vet and test it here, so an exported-API change
# that breaks the benchmark fails CI rather than the benchmark run.
(cd perfbench && go vet ./... && go test ./...)

# Batching path under the race detector, by name: the batched invocation
# entry point (engine.RunInvocations + the lukewarm protocol riding it) and
# the scratch-buffer handoff the experiment scheduler's worker pool recycles
# through a sync.Pool. The -race sweep above already covers these; the named
# pass keeps the hot-path refactor visible on its own.
go test -race -run 'TestBatchedInvocationAllocs|TestScratchHandoff|TestProperties/batch-equivalence' \
  ./internal/engine ./internal/check/props
go test -race -run 'TestScheduler|TestAblCodecHonorsMaxCyclesAndChecks' ./internal/experiments

# Mutation smoke: break every invariant on purpose and prove the checker
# fires, then run the metamorphic properties (the -race sweep above already
# covers these; this named pass keeps the verifier's own health visible even
# if the suite layout changes).
go test -run 'TestMutationSmoke|TestVerifyResult' ./internal/check
go test -run TestProperties ./internal/check/props

# Chaos pass: the full experiment sweep under the canonical smoke fault plan
# (one panic, one transient, one slow cell) plus the scheduler chaos tests.
# The -race sweep above already runs these; the named pass keeps the
# fault-tolerance path visible on its own and honors a custom IGNITE_FAULTS.
IGNITE_FAULTS=smoke go test ./internal/experiments -run Chaos

# Serving smoke: boot the daemon on an ephemeral-ish port with tiny cells,
# drive one low-RPS ignite-load burst (strict: any non-2xx fails the build),
# require that the prime burst coalesced (requests that arrive while the
# cold cell computes join its flight, so the largest batch exceeds 1), then
# require that the idle daemon holds no program and that a body with data
# after its JSON value is a 400 bad-request, SIGTERM it and require a clean
# drain (exit 0). The serve race pass by name keeps the flights (their
# coalescing, admission, drain and program release), the bounded response
# cache and the scrape paths visible on their own.
go build -o "$smoke/ignite-serve" ./cmd/ignite-serve
go build -o "$smoke/ignite-load" ./cmd/ignite-load
go test -race -run 'TestServerIntegration|TestServerReleasesIdlePrograms|TestServerResponseCacheBounded|TestBatcher|TestInstrumentsConcurrentScrape' \
  ./internal/serve ./internal/obs
(
  cd "$smoke"
  port=18431
  ./ignite-serve -addr "127.0.0.1:$port" -target-instr 100000 2>serve.log &
  serve_pid=$!
  for _ in $(seq 50); do
    curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  ./ignite-load -url "http://127.0.0.1:$port" \
    -rps 200 -duration 2s -strict -out load-smoke.json >/dev/null
  test -s load-smoke.json
  grep -q '"kind": "ignite.load-report"' load-smoke.json
  grep -q '"errors": 0,' load-smoke.json
  python3 -c 'import json, sys; sys.exit(json.load(open("load-smoke.json"))["serverSide"]["maxBatchSize"] <= 1)'
  curl -sf "http://127.0.0.1:$port/healthz" | grep -q '"programs":0'
  code="$(curl -s -o trailing.json -w '%{http_code}' -H 'Content-Type: application/json' \
    -d '{"schemaVersion":1,"function":"Auth-G"} {}' "http://127.0.0.1:$port/v1/invoke")"
  test "$code" = 400
  grep -q '"code":"bad-request"' trailing.json
  kill -TERM "$serve_pid"
  wait "$serve_pid"   # non-zero (unclean drain) fails the build via set -e
  grep -q 'drained' serve.log
)

# Fleet smoke: the population sampler and metadata-budget market end to end
# — a small sampled population swept under two policies, exported as a
# versioned document, byte-identical across two runs (the fleet contract:
# same seed, same bytes). The named -race pass keeps the fleet packages'
# concurrency story (parallel-independent sampling, frontier points
# replayed Parallel-wide) visible on its own.
go build -o "$smoke/ignite-fleet" ./cmd/ignite-fleet
go test -race -run 'TestSamplerDeterminism|TestMarketDeterminism|TestFrontier|TestFleetFrontierParallelIndependence' \
  ./internal/fleet/... ./internal/experiments
(
  cd "$smoke"
  ./ignite-fleet -n 200 -duration 10s -policies lru,topk -budgets 2,8 \
    -out fleet-a >/dev/null
  ./ignite-fleet -n 200 -duration 10s -policies lru,topk -budgets 2,8 \
    -out fleet-b >/dev/null
  test -s fleet-a/fleet-frontier.json
  grep -q '"kind": "ignite.experiment-result"' fleet-a/fleet-frontier.json
  diff fleet-a/fleet-frontier.json fleet-b/fleet-frontier.json
  python3 "$OLDPWD/scripts/fleet_frontier.py" fleet-a/fleet-frontier.json >fleet.tsv
  test -s fleet.tsv
)

# Distributed smoke: the same small sweep three ways — single-process,
# distributed across two spawned workers writing a content-addressed store,
# and a warm re-run over the sealed store (which must compute nothing
# remotely). All three documents must be byte-identical modulo the
# generation timestamp; -parallel and -target-instr are held constant
# because both are part of the cell-cache manifest. The ablation leg runs
# abl-throttle (whose cells persist and ship like figure cells) and
# abl-codec (recorder runs, always local) the same three ways. The synonym
# leg runs fig8 and fig12 the same three ways: fig12's fdp+ignite simulates
# what fig8's ignite does, so the cold run ships 8 tasks and seals 9
# records, each under its own name, and the warm run reads all 9. The
# resume leg extends a store sealed by fig8 alone with fig12 on the fleet:
# fdp+ignite joins the flight that its stored ignite twin finished, so only
# fig12's two confluence cells ship. The -race passes keep the
# coordinator's dispatch (least-busy picks under concurrency, failover,
# drain) and the ablations' store path honest.
go test -race ./internal/dist
go test -race -run 'TestAblationsResumeFromStore|TestAblationsLeaveSharedCacheStats' ./internal/experiments
(
  cd "$smoke"
  ./ignite-bench \
    -exp fig1 -workloads Fib-G,Auth-G -target-instr 100000 -parallel 2 \
    -out dist-local >/dev/null
  ./ignite-bench \
    -exp fig1 -workloads Fib-G,Auth-G -target-instr 100000 -parallel 2 \
    -workers 2 -store cellstore -out dist-cold >/dev/null 2>dist-cold.log
  grep -q 'store: sealed 4 record' dist-cold.log
  ./ignite-bench \
    -exp fig1 -workloads Fib-G,Auth-G -target-instr 100000 -parallel 2 \
    -workers 2 -store cellstore -out dist-warm >/dev/null 2>dist-warm.log
  grep -q 'dist: 0 task(s) completed remotely' dist-warm.log
  grep -q 'store: 4 hit(s)' dist-warm.log
  diff <(grep -v '"generated"' dist-local/fig1.json) \
       <(grep -v '"generated"' dist-cold/fig1.json)
  diff <(grep -v '"generated"' dist-local/fig1.json) \
       <(grep -v '"generated"' dist-warm/fig1.json)
  abl="-exp abl-throttle,abl-codec -workloads Fib-G -target-instr 100000 -parallel 2"
  ./ignite-bench $abl -out abl-local >/dev/null
  ./ignite-bench $abl -workers 2 -store ablstore -out abl-cold >/dev/null 2>abl-cold.log
  grep -q 'dist: 6 task(s) completed remotely' abl-cold.log
  grep -q 'store: sealed 6 record(s)' abl-cold.log
  ./ignite-bench $abl -workers 2 -store ablstore -out abl-warm >/dev/null 2>abl-warm.log
  grep -q 'dist: 0 task(s) completed remotely' abl-warm.log
  grep -q 'store: 6 hit(s)' abl-warm.log
  for exp in abl-throttle abl-codec; do
    for leg in abl-cold abl-warm; do
      diff <(grep -v '"generated"' "abl-local/$exp.json") \
           <(grep -v '"generated"' "$leg/$exp.json")
    done
  done
  syn="-exp fig8,fig12 -workloads Fib-G -target-instr 100000 -parallel 2"
  ./ignite-bench $syn -out syn-local >/dev/null
  ./ignite-bench $syn -workers 2 -store synstore -out syn-cold >/dev/null 2>syn-cold.log
  grep -q 'dist: 8 task(s) completed remotely' syn-cold.log
  grep -q 'store: sealed 9 record(s)' syn-cold.log
  ./ignite-bench $syn -workers 2 -store synstore -out syn-warm >/dev/null 2>syn-warm.log
  grep -q 'dist: 0 task(s) completed remotely' syn-warm.log
  grep -q 'store: 9 hit(s)' syn-warm.log
  for exp in fig8 fig12; do
    for leg in syn-cold syn-warm; do
      diff <(grep -v '"generated"' "syn-local/$exp.json") \
           <(grep -v '"generated"' "$leg/$exp.json")
    done
  done
  res="-workloads Fib-G -target-instr 100000 -parallel 2"
  ./ignite-bench -exp fig8 $res -store resstore >/dev/null
  ./ignite-bench -exp fig8,fig12 $res -workers 2 -store resstore -out res-cold >/dev/null 2>res-cold.log
  grep -q 'dist: 2 task(s) completed remotely' res-cold.log
  grep -q 'store: sealed 9 record(s)' res-cold.log
  for exp in fig8 fig12; do
    diff <(grep -v '"generated"' "syn-local/$exp.json") \
         <(grep -v '"generated"' "res-cold/$exp.json")
  done
)

# Fuzz the dist wire decoders briefly (seeds in internal/dist/testdata/fuzz).
# Minimization is capped so the 10s go to new inputs, not to shrinking the
# multi-kilobyte response seed.
for target in FuzzParseTaskRequest FuzzTaskResponse; do
  go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s -fuzzminimizetime 200x ./internal/dist
done
# The same for the serving daemon's request decoder (seeds in
# internal/serve/testdata/fuzz).
go test -run '^$' -fuzz '^FuzzParseInvokeRequest$' -fuzztime 10s -fuzzminimizetime 200x ./internal/serve
# The same for the Ignite metadata codec: no panic on arbitrary bytes, exact
# round trips (seeds in internal/ignite/testdata/fuzz).
go test -run '^$' -fuzz '^FuzzCodec$' -fuzztime 10s -fuzzminimizetime 200x ./internal/ignite
# The same for the store's record and manifest reads (seeds in
# internal/store/testdata/fuzz), the daemon's /metrics document and the
# load report (seeds under internal/serve and internal/loadgen).
for target in FuzzGetRecord FuzzOpenManifest; do
  go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s -fuzzminimizetime 200x ./internal/store
done
go test -run '^$' -fuzz '^FuzzDecodeMetrics$' -fuzztime 10s -fuzzminimizetime 200x ./internal/serve
go test -run '^$' -fuzz '^FuzzDecodeReport$' -fuzztime 10s -fuzzminimizetime 200x ./internal/loadgen

# Self-healing smoke: the same sweep on a supervised fleet with a worker
# SIGKILLed mid-run. The supervisor must resurrect the victim on its old
# address, the prober re-admit it, and the run still exit 0 with a document
# byte-identical (modulo the generation timestamp) to the single-process
# baseline and a store that reseals to the same Merkle root warm. The named
# -race passes keep the prober/stalled-worker/supervisor paths and the full
# chaos harness visible on their own.
go test -race -run 'TestSupervisorRestartsWorker|TestProberReadmitsRestartedWorker|TestStalledWorkerFailsOver|TestTaskCancelNotWorkerFault|TestWorkerDrainShedsInFlightFailover' \
  ./internal/dist
go test -race -run 'TestChaosSweepByteIdentical' -timeout 10m ./internal/chaos
(
  cd "$smoke"
  # All 20 workloads (40 cells, a few seconds of sweep) so the SIGKILL
  # reliably lands mid-run; the single-process baseline uses the same
  # manifest-visible flags.
  ./ignite-bench \
    -exp fig1 -target-instr 100000 -parallel 2 \
    -out chaos-base >/dev/null
  ./ignite-bench \
    -exp fig1 -target-instr 100000 -parallel 2 \
    -workers 2 -store chaos-store -out chaos-cold >/dev/null 2>chaos-cold.log &
  bench_pid=$!
  # SIGKILL one spawned worker shortly after it appears: exact process
  # name plus a -worker argv check, so neither the coordinating bench nor
  # any shell whose command line merely mentions the pattern can be the
  # victim.
  victim=""
  for _ in $(seq 100); do
    for pid in $(pgrep -x ignite-bench || true); do
      if tr '\0' ' ' <"/proc/$pid/cmdline" 2>/dev/null | grep -q -- '-worker -listen'; then
        victim="$pid"
        break 2
      fi
    done
    sleep 0.05
  done
  test -n "$victim"
  sleep 0.5
  kill -KILL "$victim"
  wait "$bench_pid"   # non-zero (a lost cell) fails the build via set -e
  grep -q 'store: sealed 40 record' chaos-cold.log
  grep -Eq 'dist: [1-9][0-9]* worker restart' chaos-cold.log
  diff <(grep -v '"generated"' chaos-base/fig1.json) \
       <(grep -v '"generated"' chaos-cold/fig1.json)
  root_cold="$(sed -n 's/.*merkle root \([0-9a-f]*\).*/\1/p' chaos-cold.log)"
  ./ignite-bench \
    -exp fig1 -target-instr 100000 -parallel 2 \
    -store chaos-store -out chaos-warm >/dev/null 2>chaos-warm.log
  grep -q 'store: 40 hit(s)' chaos-warm.log
  root_warm="$(sed -n 's/.*merkle root \([0-9a-f]*\).*/\1/p' chaos-warm.log)"
  test -n "$root_cold"
  test "$root_cold" = "$root_warm"
)

echo "ci: ok (build, vet, race tests, examples, JSON export, checked smoke, bench smoke, perfbench vet and tests, batching race pass, mutation smoke, chaos, serve smoke, fleet smoke, dist smoke, wire, codec, store and document fuzz, self-healing smoke)"
