#!/usr/bin/env bash
# Benchmark packages and compare each against its stored baseline.
#
# Usage:
#   scripts/benchdiff.sh [-update] [pkg...]
#
#   scripts/benchdiff.sh                   # ./internal/engine ./internal/cfg
#   scripts/benchdiff.sh ./internal/cfg    # one package
#   scripts/benchdiff.sh -update           # run and (re)write the baselines
#
# Package ./internal/<name> keeps its baseline in bench/<name>-baseline.txt.
# BENCH_COUNT overrides the repetition count (default 10). Comparison uses
# benchstat when installed; otherwise a raw fallback compares per-benchmark
# minima — the right statistic on a noisy shared machine, where every source
# of interference only ever adds time.
set -euo pipefail
cd "$(dirname "$0")/.."

count="${BENCH_COUNT:-10}"
update=0
if [[ "${1:-}" == "-update" ]]; then
  update=1
  shift
fi
pkgs=("$@")
[[ ${#pkgs[@]} -eq 0 ]] && pkgs=(./internal/engine ./internal/cfg)

mkdir -p bench
new="$(mktemp)"
trap 'rm -f "$new"' EXIT

for pkg in "${pkgs[@]}"; do
  baseline="bench/$(basename "$pkg")-baseline.txt"
  echo "benchdiff: go test -run '^\$' -bench=. -count=$count -benchmem $pkg" >&2
  go test -run '^$' -bench=. -count="$count" -benchmem "$pkg" | tee "$new"

  if [[ $update -eq 1 || ! -s $baseline ]]; then
    cp "$new" "$baseline"
    echo "benchdiff: wrote baseline $baseline" >&2
    continue
  fi

  if command -v benchstat >/dev/null 2>&1; then
    benchstat "$baseline" "$new"
  else
    echo "benchdiff: benchstat not installed; comparing per-benchmark minima against $baseline" >&2
    awk -v base="$baseline" '
      /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        ns = $3 + 0
        if (FILENAME == base) {
          if (!(name in old) || ns < old[name]) old[name] = ns
        } else {
          if (!(name in cur) || ns < cur[name]) cur[name] = ns
          if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
        }
      }
      END {
        printf "%-34s %15s %15s %9s\n", "benchmark", "old min ns/op", "new min ns/op", "delta"
        for (i = 1; i <= n; i++) {
          name = order[i]
          if (name in old)
            printf "%-34s %15.0f %15.0f %+8.1f%%\n", name, old[name], cur[name],
              (cur[name] - old[name]) * 100 / old[name]
          else
            printf "%-34s %15s %15.0f %9s\n", name, "-", cur[name], "new"
        }
      }' "$baseline" "$new"
  fi
done
