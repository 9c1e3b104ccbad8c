#!/bin/sh
# Measures the repository's perf trajectory point and (re)writes the
# committed BENCH_*.json. Runs bench/perf_sweep twice — the full grid (the
# headline events/sec and points/sec numbers) and --quick (the small grid
# CI compares against, tools/check_perf.sh) — plus bench/serve_load twice
# (full and --quick) for the wave-serve daemon section, and assembles the
# trajectory file from all four plus the recorded pre-optimization
# baseline.
#
# Usage: tools/run_perf.sh [build-dir] [out.json]
#   build-dir  default: build   (needs bench/perf_sweep and
#              bench/serve_load built, Release!)
#   out.json   default: BENCH_pr10.json
#
# The baseline section is a constant: it was measured at PR3 time by
# rebuilding the pre-PR3 implementation (commit 23832a9) with this same
# bench and running it interleaved with the optimized build on one
# machine. It cannot be re-measured from this checkout — do not edit it
# unless you repeat that protocol; `current`/`quick` are re-measured on
# every run of this script.
set -eu

build="${1:-build}"
out="${2:-BENCH_pr10.json}"
sweep="$build/bench/perf_sweep"
serve="$build/bench/serve_load"

for bin in "$sweep" "$serve"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found or not executable (build with" \
         "cmake -B $build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $build)" >&2
    exit 1
  fi
done

tmp_full=$(mktemp) || exit 1
tmp_quick=$(mktemp) || exit 1
tmp_serve=$(mktemp) || exit 1
tmp_serve_quick=$(mktemp) || exit 1
trap 'rm -f "$tmp_full" "$tmp_quick" "$tmp_serve" "$tmp_serve_quick"' EXIT

echo "== perf_sweep (full grid, ~30s) =="
"$sweep" --out="$tmp_full"
echo
echo "== perf_sweep --quick (CI reference) =="
"$sweep" --quick --out="$tmp_quick"
echo
echo "== serve_load (wave-serve daemon, full) =="
"$serve" --out="$tmp_serve"
echo
echo "== serve_load --quick (CI reference) =="
"$serve" --quick --out="$tmp_serve_quick"

# Key-set parity: --quick must emit exactly the keys the full run emits.
# tools/check_perf.sh gates on the quick file; a key present only in the
# full output would let a gate go silently unenforced in CI.
keys() { awk -F': ' '$1 ~ /^[[:space:]]*"/ { gsub(/[[:space:]"]/, "", $1); print $1 }' "$1" | sort; }
if [ "$(keys "$tmp_full")" != "$(keys "$tmp_quick")" ]; then
  echo "error: perf_sweep --quick and full runs emit different JSON key sets:" >&2
  keys "$tmp_full" > "$tmp_full.keys"; keys "$tmp_quick" > "$tmp_quick.keys"
  diff "$tmp_full.keys" "$tmp_quick.keys" >&2 || true
  rm -f "$tmp_full.keys" "$tmp_quick.keys"
  exit 1
fi
if [ "$(keys "$tmp_serve")" != "$(keys "$tmp_serve_quick")" ]; then
  echo "error: serve_load --quick and full runs emit different JSON key sets:" >&2
  keys "$tmp_serve" > "$tmp_serve.keys"; keys "$tmp_serve_quick" > "$tmp_serve_quick.keys"
  diff "$tmp_serve.keys" "$tmp_serve_quick.keys" >&2 || true
  rm -f "$tmp_serve.keys" "$tmp_serve_quick.keys"
  exit 1
fi

# Pulls "key": value out of a flat perf_sweep JSON. Anchored to the whole
# field, so one key can never match another key containing it.
metric() { # file key
  awk -F': ' -v key="\"$2\"" \
    '$1 ~ ("^[[:space:]]*" key "$") { gsub(/[,\r]/, "", $2); print $2 }' "$1"
}

full_des=$(metric "$tmp_full" des_events_per_sec)
full_engine=$(metric "$tmp_full" engine_events_per_sec)
full_model=$(metric "$tmp_full" model_points_per_sec)
full_batch=$(metric "$tmp_full" model_batch_points_per_sec)
quick_des=$(metric "$tmp_quick" des_events_per_sec)
quick_engine=$(metric "$tmp_quick" engine_events_per_sec)
quick_model=$(metric "$tmp_quick" model_points_per_sec)
quick_batch=$(metric "$tmp_quick" model_batch_points_per_sec)
svc_cold=$(metric "$tmp_full" service_cold_evals_per_sec)
svc_hits=$(metric "$tmp_full" service_hits_per_sec)
svc_speedup=$(metric "$tmp_full" service_hit_speedup)
obs_plain=$(metric "$tmp_full" obs_uninstrumented_des_events_per_sec)
obs_instr=$(metric "$tmp_full" obs_instrumented_des_events_per_sec)
obs_traced=$(metric "$tmp_full" obs_traced_des_events_per_sec)
obs_spans=$(metric "$tmp_full" obs_trace_spans)
quick_obs_plain=$(metric "$tmp_quick" obs_uninstrumented_des_events_per_sec)
quick_obs_instr=$(metric "$tmp_quick" obs_instrumented_des_events_per_sec)
opt_candidates=$(metric "$tmp_full" optimize_candidates)
opt_scalar=$(metric "$tmp_full" optimize_scalar_candidates_per_sec)
opt_batch=$(metric "$tmp_full" optimize_batch_candidates_per_sec)
opt_speedup=$(metric "$tmp_full" optimize_batch_speedup)
opt_search_eval=$(metric "$tmp_full" optimize_search_evaluated)
opt_search_wall=$(metric "$tmp_full" optimize_search_wall_s)
quick_opt_scalar=$(metric "$tmp_quick" optimize_scalar_candidates_per_sec)
quick_opt_batch=$(metric "$tmp_quick" optimize_batch_candidates_per_sec)
serve_workers=$(metric "$tmp_serve" serve_workers)
serve_capacity=$(metric "$tmp_serve" serve_capacity_qps)
serve_offered=$(metric "$tmp_serve" serve_offered_qps)
serve_tput=$(metric "$tmp_serve" serve_throughput_qps)
serve_p50=$(metric "$tmp_serve" serve_p50_us)
serve_p99=$(metric "$tmp_serve" serve_p99_us)
serve_shed=$(metric "$tmp_serve" serve_shed_rate)
serve_degrade=$(metric "$tmp_serve" serve_degrade_rate)
q_serve_tput=$(metric "$tmp_serve_quick" serve_throughput_qps)
q_serve_p50=$(metric "$tmp_serve_quick" serve_p50_us)
q_serve_p99=$(metric "$tmp_serve_quick" serve_p99_us)
q_serve_shed=$(metric "$tmp_serve_quick" serve_shed_rate)
q_serve_degrade=$(metric "$tmp_serve_quick" serve_degrade_rate)

# Per-workload DES events/sec from the full run, assembled as one JSON
# object line ("name": rate, ...). The names are discovered from the
# perf_sweep output's wl_<name>_events_per_sec keys (registry-driven), so
# a newly registered workload lands here without touching this script.
workloads_json=$(awk -F': ' '
  $1 ~ /"wl_.*_events_per_sec"/ {
    name = $1
    sub(/^[[:space:]]*"wl_/, "", name)
    sub(/_events_per_sec"$/, "", name)
    gsub(/[,\r]/, "", $2)
    if (out != "") out = out ", "
    out = out "\"" name "\": " $2
  }
  END { print out }
' "$tmp_full")

# Pre-PR3 baseline (see header comment). Keep in sync with docs/PERFORMANCE.md.
base_des=2738960
base_engine=13756500
base_model=8821.67

obs_overhead=$(awk "BEGIN { printf \"%.3f\", $obs_instr / $obs_plain }")
speedup_des=$(awk "BEGIN { printf \"%.2f\", $full_des / $base_des }")
speedup_batch=$(awk "BEGIN { printf \"%.2f\", $full_batch / $full_model }")
speedup_engine=$(awk "BEGIN { printf \"%.2f\", $full_engine / $base_engine }")

cat > "$out" <<EOF
{
  "schema": "wavebench-perf-trajectory/1",
  "bench": "perf_sweep",
  "note": "Written by tools/run_perf.sh. baseline = the pre-PR3 hot path (std::function events, shared_ptr messages + requests, std::unordered_map channels, binary-heap calendar) at commit 23832a9, measured at PR3 time interleaved with the optimized build on one machine; current/quick re-measured on this machine by this run.",
  "machine": "$(uname -m) $(uname -s | tr 'A-Z' 'a-z'), $(getconf _NPROCESSORS_ONLN 2>/dev/null || echo '?') hardware thread(s)",
  "baseline_label": "pre-PR3 allocating hot path @ 23832a9",
  "baseline": {"des_events_per_sec": $base_des, "engine_events_per_sec": $base_engine, "model_points_per_sec": $base_model},
  "current_label": "this checkout (PR3 pooled hot path + PR4 workload subsystem + PR5 facade + PR6 batch solver + PR8 serve daemon + PR9 observability + PR10 auto-configurator), measured by this run",
  "current": {"des_events_per_sec": $full_des, "engine_events_per_sec": $full_engine, "model_points_per_sec": $full_model, "model_batch_points_per_sec": $full_batch},
  "quick": {"des_events_per_sec": $quick_des, "engine_events_per_sec": $quick_engine, "model_points_per_sec": $quick_model, "model_batch_points_per_sec": $quick_batch, "obs_uninstrumented_des_events_per_sec": $quick_obs_plain, "obs_instrumented_des_events_per_sec": $quick_obs_instr, "optimize_scalar_candidates_per_sec": $quick_opt_scalar, "optimize_batch_candidates_per_sec": $quick_opt_batch},
  "workloads_label": "per-workload DES events/sec, full grid (PR4 registry sweep)",
  "workloads_events_per_sec": {$workloads_json},
  "service_label": "EvalService memoization, full grid (PR5 facade): cold analytic evals/sec vs cache-hit lookups/sec on the same query mix",
  "service": {"cold_evals_per_sec": $svc_cold, "hits_per_sec": $svc_hits, "hit_speedup": $svc_speedup},
  "batch_label": "PR6 batch solver: batch-routed vs scalar analytic points/sec on the same grid, this run",
  "serve_label": "PR8 wave-serve daemon (bench/serve_load): closed-loop capacity probe, open-loop mixed stream at half capacity (p50/p99 end-to-end latency), and a DES overload burst (shed/degrade rates); $serve_workers worker(s) on this machine — absolute qps/latency are machine-bound, the cross-machine gate in tools/check_perf.sh only fires at >= 8 hardware threads",
  "serve": {"serve_workers": $serve_workers, "serve_capacity_qps": $serve_capacity, "serve_offered_qps": $serve_offered, "serve_throughput_qps": $serve_tput, "serve_p50_us": $serve_p50, "serve_p99_us": $serve_p99, "serve_shed_rate": $serve_shed, "serve_degrade_rate": $serve_degrade},
  "serve_quick": {"serve_throughput_qps": $q_serve_tput, "serve_p50_us": $q_serve_p50, "serve_p99_us": $q_serve_p99, "serve_shed_rate": $q_serve_shed, "serve_degrade_rate": $q_serve_degrade},
  "obs_label": "PR9 observability: the identical serial wavefront DES run plain, with the always-on metrics registry attached (instrumented — gated by tools/check_perf.sh at >= 0.90x uninstrumented within the fresh quick file), and with the opt-in span tracer on top (traced — reported only; $obs_spans spans recorded), full grid, this run",
  "obs_overhead": {"obs_uninstrumented_des_events_per_sec": $obs_plain, "obs_instrumented_des_events_per_sec": $obs_instr, "obs_traced_des_events_per_sec": $obs_traced, "obs_trace_spans": $obs_spans, "instrumented_over_uninstrumented": $obs_overhead},
  "optimize_label": "PR10 auto-configurator (bench/perf_sweep optimize section): a pinned beam-round candidate stream scored through the optimizer's compiled BatchEval plan vs the per-point scalar runner route (best-of-4 rounds, within-file — tools/check_perf.sh gates the quick speedup at >= 10x), plus one end-to-end seeded beam search with the DES re-rank",
  "optimize": {"optimize_candidates": $opt_candidates, "optimize_scalar_candidates_per_sec": $opt_scalar, "optimize_batch_candidates_per_sec": $opt_batch, "optimize_batch_speedup": $opt_speedup, "optimize_search_evaluated": $opt_search_eval, "optimize_search_wall_s": $opt_search_wall},
  "speedup": {"des_events_per_sec": $speedup_des, "engine_events_per_sec": $speedup_engine, "model_batch_vs_scalar": $speedup_batch}
}
EOF
echo
echo "wrote $out (speedup over pre-PR3 baseline: ${speedup_des}x DES events/sec;" \
     "batch solver ${speedup_batch}x scalar model points/sec;" \
     "EvalService hits ${svc_speedup}x cold evals;" \
     "wave-serve ${serve_tput} qps, p99 ${serve_p99} us;" \
     "obs overhead ${obs_overhead}x plain;" \
     "optimize batch scoring ${opt_speedup}x scalar)"
