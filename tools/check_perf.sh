#!/bin/sh
# Perf regression gate: compares a fresh `perf_sweep --quick` measurement
# against the committed trajectory file and fails on a large events/sec
# drop, and checks the batch solver still beats the scalar analytic path
# by a wide margin within the fresh run. With a third file — a fresh
# `serve_load --quick` run — it also gates the wave-serve daemon section.
# CI runs this in the perf-smoke job.
#
# Usage: tools/check_perf.sh BENCH.json fresh_quick.json [fresh_serve.json] \
#            [min_ratio] [min_batch_speedup] [min_obs_ratio] \
#            [min_optimize_speedup]
#   BENCH.json        committed trajectory (its "quick" and "serve_quick"
#                     sections are the references)
#   fresh_quick.json  output of `bench/perf_sweep --quick --out=...`
#   fresh_serve.json  output of `bench/serve_load --quick --out=...`;
#                     optional, but omitting it skips every serve gate
#                     with a LOUD message (CI always supplies it)
#   min_ratio         default 0.75 — i.e. fail on a >25% regression. The
#                     threshold is deliberately generous: CI runners are
#                     noisy and differ from the machine that wrote the
#                     reference; this catches "the pooling broke and we
#                     are allocating again", not 5% jitter.
#   min_batch_speedup default 10 — the fresh run's batch-routed model
#                     points/sec must beat its own scalar points/sec by
#                     this factor (within-file, machine-independent)
#   min_obs_ratio     default 0.90 — the instrumented DES run (always-on
#                     metrics registry attached) must keep at least this
#                     fraction of the uninstrumented events/sec
#                     (within-file, machine-independent; the opt-in span
#                     tracer is reported but not gated)
#   min_optimize_speedup default 10 — the fresh run's batch-scored
#                     optimize candidates/sec must beat its own scalar
#                     (per-point runner route) candidates/sec by this
#                     factor on the same pinned candidate stream
#                     (within-file, machine-independent — the PR 6 batch
#                     gate convention applied to the auto-configurator's
#                     scoring path)
#
# Serve gates (fixed thresholds, see the serve section at the bottom):
# within-file, the overload burst must actually shed and degrade (rates
# > 0 — machine-independent proof the admission control works), and
# cross-machine, throughput >= 0.5x / p99 <= 4x the committed serve_quick
# reference — the cross-machine pair only on runners with >= 8 hardware
# threads (loud skip below that: a 1-core runner measures the scheduler,
# not the daemon).
#
# Every gated key must exist in the fresh file — a missing key exits 2, so
# a gate can never silently pass because perf_sweep stopped emitting it.
set -eu

ref="${1:?usage: check_perf.sh BENCH.json fresh.json [fresh_serve.json] [min_ratio]}"
fresh="${2:?usage: check_perf.sh BENCH.json fresh.json [fresh_serve.json] [min_ratio]}"
fresh_serve="${3:-}"
min_ratio="${4:-0.75}"

# The committed file keeps each section on one line, so the quick
# reference is the number following des_events_per_sec on the "quick" line.
# The fresh-file key match is anchored to the whole field so registry-
# derived wl_<name>_events_per_sec keys can never alias it, whatever a
# future workload is called.
ref_des=$(awk -F'"des_events_per_sec": ' '/"quick"/ { split($2, a, /[,}]/); print a[1] }' "$ref")
fresh_des=$(awk -F': ' '$1 ~ /^[[:space:]]*"des_events_per_sec"$/ { gsub(/[,\r]/, "", $2); print $2 }' "$fresh")

if [ -z "$ref_des" ] || [ -z "$fresh_des" ]; then
  echo "check_perf: could not extract des_events_per_sec (ref='$ref_des'," \
       "fresh='$fresh_des')" >&2
  exit 2
fi

ratio=$(awk "BEGIN { printf \"%.3f\", $fresh_des / $ref_des }")
echo "DES events/sec: fresh $fresh_des vs committed quick $ref_des" \
     "(ratio $ratio, minimum $min_ratio)"
ok=$(awk "BEGIN { print ($fresh_des >= $min_ratio * $ref_des) ? 1 : 0 }")
if [ "$ok" -ne 1 ]; then
  echo "PERF REGRESSION: quick events/sec fell below ${min_ratio}x the" \
       "committed reference" >&2
  exit 1
fi
# Batch-solver gate: the fresh run's batch-routed points/sec must be at
# least min_batch_speedup x its own scalar points/sec. Both numbers come
# from the same process on the same grid, so this is machine-independent —
# it catches "the batch route quietly fell back to scalar", not jitter.
min_batch_speedup="${5:-10}"
fresh_model=$(awk -F': ' '$1 ~ /^[[:space:]]*"model_points_per_sec"$/ { gsub(/[,\r]/, "", $2); print $2 }' "$fresh")
fresh_batch=$(awk -F': ' '$1 ~ /^[[:space:]]*"model_batch_points_per_sec"$/ { gsub(/[,\r]/, "", $2); print $2 }' "$fresh")

if [ -z "$fresh_model" ] || [ -z "$fresh_batch" ]; then
  echo "check_perf: could not extract model/model_batch points_per_sec" \
       "(model='$fresh_model', batch='$fresh_batch')" >&2
  exit 2
fi

batch_ratio=$(awk "BEGIN { printf \"%.2f\", $fresh_batch / $fresh_model }")
echo "model points/sec: batch $fresh_batch vs scalar $fresh_model" \
     "(speedup ${batch_ratio}x, minimum ${min_batch_speedup}x)"
ok=$(awk "BEGIN { print ($fresh_batch >= $min_batch_speedup * $fresh_model) ? 1 : 0 }")
if [ "$ok" -ne 1 ]; then
  echo "PERF REGRESSION: batch-routed analytic points/sec fell below" \
       "${min_batch_speedup}x the scalar path" >&2
  exit 1
fi

# Auto-configurator gate (PR10): the optimize section scores one pinned
# candidate stream twice — through the optimizer's compiled BatchEval plan
# and through the per-point scalar runner route. Both rates come from the
# same process on the same candidates (best-of-N rounds), so this is
# within-file and machine-independent: it catches "the optimizer's scoring
# quietly degraded to per-point evaluation", not jitter.
min_optimize_speedup="${7:-10}"
fresh_opt_scalar=$(awk -F': ' '$1 ~ /^[[:space:]]*"optimize_scalar_candidates_per_sec"$/ { gsub(/[,\r]/, "", $2); print $2 }' "$fresh")
fresh_opt_batch=$(awk -F': ' '$1 ~ /^[[:space:]]*"optimize_batch_candidates_per_sec"$/ { gsub(/[,\r]/, "", $2); print $2 }' "$fresh")

if [ -z "$fresh_opt_scalar" ] || [ -z "$fresh_opt_batch" ]; then
  echo "check_perf: could not extract optimize candidates_per_sec" \
       "(scalar='$fresh_opt_scalar', batch='$fresh_opt_batch')" >&2
  exit 2
fi

opt_ratio=$(awk "BEGIN { printf \"%.2f\", $fresh_opt_batch / $fresh_opt_scalar }")
echo "optimize candidates/sec: batch $fresh_opt_batch vs scalar $fresh_opt_scalar" \
     "(speedup ${opt_ratio}x, minimum ${min_optimize_speedup}x)"
ok=$(awk "BEGIN { print ($fresh_opt_batch >= $min_optimize_speedup * $fresh_opt_scalar) ? 1 : 0 }")
if [ "$ok" -ne 1 ]; then
  echo "PERF REGRESSION: batch-scored optimize candidates/sec fell below" \
       "${min_optimize_speedup}x the scalar route" >&2
  exit 1
fi

# Observability-overhead gate (PR9): the instrumented run (the always-on
# metrics registry attached) must stay within 10% of the plain run on the
# identical serial wavefront. Both numbers come from the same process, so
# this is within-file and machine-independent — it catches "someone put a
# mutex or an allocation on the event hot path", not jitter. min_obs_ratio
# is deliberately below the near-zero-cost claim to absorb small-grid
# noise in --quick runs. The opt-in span tracer's rate
# (obs_traced_des_events_per_sec) is reported by perf_sweep but not gated
# — full timeline capture is a diagnostic mode with documented overhead
# (docs/OBSERVABILITY.md).
min_obs_ratio="${6:-0.90}"
fresh_obs_plain=$(awk -F': ' '$1 ~ /^[[:space:]]*"obs_uninstrumented_des_events_per_sec"$/ { gsub(/[,\r]/, "", $2); print $2 }' "$fresh")
fresh_obs_instr=$(awk -F': ' '$1 ~ /^[[:space:]]*"obs_instrumented_des_events_per_sec"$/ { gsub(/[,\r]/, "", $2); print $2 }' "$fresh")

if [ -z "$fresh_obs_plain" ] || [ -z "$fresh_obs_instr" ]; then
  echo "check_perf: could not extract observability-overhead keys" \
       "(uninstrumented='$fresh_obs_plain', instrumented='$fresh_obs_instr')" >&2
  exit 2
fi

obs_ratio=$(awk "BEGIN { printf \"%.3f\", $fresh_obs_instr / $fresh_obs_plain }")
echo "obs overhead: instrumented $fresh_obs_instr vs plain $fresh_obs_plain" \
     "events/sec (ratio $obs_ratio, minimum $min_obs_ratio)"
ok=$(awk "BEGIN { print ($fresh_obs_instr >= $min_obs_ratio * $fresh_obs_plain) ? 1 : 0 }")
if [ "$ok" -ne 1 ]; then
  echo "PERF REGRESSION: instrumented DES events/sec fell below" \
       "${min_obs_ratio}x the uninstrumented run — the observability layer" \
       "is no longer near-zero-cost on the event hot path" >&2
  exit 1
fi

# wave-serve gates (PR8). Within-file first: the serve_load overload burst
# must actually shed and degrade — rates of exactly 0 mean the admission
# control or the degrade path broke, on any machine. Then cross-machine
# throughput/p99 against the committed serve_quick reference, enforced
# only on runners with >= 8 hardware threads (below that the gate is
# skipped with a message, never silently).
if [ -z "$fresh_serve" ]; then
  echo "serve: SKIPPED all serve gates — no fresh serve_load file supplied" \
       "(pass one as the third argument; CI always does)"
else
  serve_metric() { # key
    awk -F': ' -v key="\"$1\"" \
      '$1 ~ ("^[[:space:]]*" key "$") { gsub(/[,\r]/, "", $2); print $2 }' \
      "$fresh_serve"
  }
  s_hw=$(serve_metric hardware_threads)
  s_tput=$(serve_metric serve_throughput_qps)
  s_p99=$(serve_metric serve_p99_us)
  s_shed=$(serve_metric serve_shed_rate)
  s_degrade=$(serve_metric serve_degrade_rate)
  if [ -z "$s_hw" ] || [ -z "$s_tput" ] || [ -z "$s_p99" ] || \
     [ -z "$s_shed" ] || [ -z "$s_degrade" ]; then
    echo "check_perf: could not extract serve keys from $fresh_serve" \
         "(hw='$s_hw', throughput='$s_tput', p99='$s_p99', shed='$s_shed'," \
         "degrade='$s_degrade')" >&2
    exit 2
  fi

  echo "serve overload: shed_rate $s_shed, degrade_rate $s_degrade" \
       "(both must be > 0)"
  ok=$(awk "BEGIN { print ($s_shed > 0 && $s_degrade > 0) ? 1 : 0 }")
  if [ "$ok" -ne 1 ]; then
    echo "SERVE REGRESSION: the overload burst no longer sheds or degrades" \
         "(shed_rate=$s_shed, degrade_rate=$s_degrade) — bounded admission" \
         "or the degrade path is broken" >&2
    exit 1
  fi

  ref_serve_tput=$(awk -F'"serve_throughput_qps": ' '/"serve_quick"/ { split($2, a, /[,}]/); print a[1] }' "$ref")
  ref_serve_p99=$(awk -F'"serve_p99_us": ' '/"serve_quick"/ { split($2, a, /[,}]/); print a[1] }' "$ref")
  if [ -z "$ref_serve_tput" ] || [ -z "$ref_serve_p99" ]; then
    echo "check_perf: $ref has no serve_quick reference" \
         "(throughput='$ref_serve_tput', p99='$ref_serve_p99')" >&2
    exit 2
  fi
  min_serve_hw=8
  min_serve_ratio=0.5
  max_serve_p99_ratio=4
  serve_ratio=$(awk "BEGIN { printf \"%.3f\", $s_tput / $ref_serve_tput }")
  p99_ratio=$(awk "BEGIN { printf \"%.3f\", $s_p99 / $ref_serve_p99 }")
  if [ "$s_hw" -ge "$min_serve_hw" ]; then
    echo "serve throughput: fresh $s_tput vs committed quick $ref_serve_tput qps" \
         "(ratio $serve_ratio, minimum $min_serve_ratio)"
    echo "serve p99: fresh $s_p99 vs committed quick $ref_serve_p99 us" \
         "(ratio $p99_ratio, maximum $max_serve_p99_ratio)"
    ok=$(awk "BEGIN { print ($s_tput >= $min_serve_ratio * $ref_serve_tput && \
                             $s_p99 <= $max_serve_p99_ratio * $ref_serve_p99) ? 1 : 0 }")
    if [ "$ok" -ne 1 ]; then
      echo "SERVE REGRESSION: throughput below ${min_serve_ratio}x or p99 above" \
           "${max_serve_p99_ratio}x the committed serve_quick reference" >&2
      exit 1
    fi
  else
    echo "serve: SKIPPED throughput/p99 gates — runner has $s_hw hardware" \
         "thread(s), fewer than the $min_serve_hw required for a meaningful" \
         "daemon measurement (measured: $s_tput qps, p99 $s_p99 us," \
         "ratios $serve_ratio/$p99_ratio; keys present, overload gates enforced)"
  fi
fi
echo "perf OK"
