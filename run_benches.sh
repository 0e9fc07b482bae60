#!/bin/sh
# Runs every bench binary, teeing each output to results/.
#
# Fails loudly: a missing binary (stale build, renamed target) or a bench
# exiting non-zero aborts the whole run with a non-zero exit instead of
# silently leaving stale results/ files behind. ALL_BENCHES_DONE is printed
# only when every bench ran.
#
# `run_benches.sh --chaos` runs only the seeded chaos sweep (bench_robustness
# --chaos), validates results/BENCH_robustness.json, and copies it to the
# repo root. The full (argument-free) run includes the chaos sweep too.
set -u
cd /root/repo

chaos_only=0
for arg in "$@"; do
  if [ "$arg" = "--chaos" ]; then
    chaos_only=1
  fi
done

fail=0

run_bench() {
  # run_bench NAME OUT ERR [ARGS...] — ERR of "-" merges stderr into OUT.
  bin="./build/bench/$1"
  out="$2"
  err="$3"
  shift 3
  if [ ! -x "$bin" ]; then
    echo "run_benches: MISSING BINARY $bin (build the bench targets first)" >&2
    fail=1
    return 1
  fi
  echo "+ $bin $*"
  if [ "$err" = "-" ]; then
    "$bin" "$@" > "results/$out" 2>&1
  else
    "$bin" "$@" > "results/$out" 2> "results/$err"
  fi
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "run_benches: $bin FAILED with exit $status (see results/$out)" >&2
    fail=1
    return 1
  fi
}

# Seeded chaos sweep (DESIGN.md §11): availability/MTTR/rung/retry ledger
# under fault schedules, written to results/BENCH_robustness.json. The bench
# itself exits non-zero if the default schedule drops below 99% availability,
# MTTR is unbounded, or a repeated schedule is not bit-identical.
run_chaos() {
  run_bench bench_robustness robustness_chaos.txt - \
    --chaos --out results/BENCH_robustness.json || return 1
  if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      results/BENCH_robustness.json; then
    echo "run_benches: results/BENCH_robustness.json is missing or not valid JSON" >&2
    fail=1
    return 1
  fi
  cp results/BENCH_robustness.json BENCH_robustness.json
}

if [ "$chaos_only" -eq 1 ]; then
  run_chaos
  if [ "$fail" -ne 0 ]; then
    echo "run_benches: chaos sweep failed" >&2
    exit 1
  fi
  echo CHAOS_BENCH_DONE
  exit 0
fi

run_bench bench_table2  table2.txt  table2.log
run_bench bench_table4  table4.txt  table4.log
run_bench bench_figure2 figure2.txt figure2.log
run_bench bench_figure3 figure3.txt figure3.log
run_bench bench_table3  table3.txt  table3.log
run_bench bench_ablation_design ablation.txt ablation.log
run_bench bench_micro_selection micro_selection.txt -
run_bench bench_micro_llm       micro_llm.txt -
run_bench bench_robustness      robustness.txt -
# Kernel/runtime perf harness; also writes results/BENCH_perf.json with
# GFLOP/s rows (fp32 and the quantized qmatmul + int8 decode/ledger/quality
# rows), the steady-state allocation probe, and
# the kernel build provenance (kernel_variant, native_arch,
# int8_kernel_variant, int8_block) so perf trajectories name the exact
# kernels they measured. --metrics-out dumps the full obs metrics registry;
# unparseable JSON there (or in BENCH_perf.json) fails the run.
run_bench bench_perf perf.txt perf.log --metrics-out results/metrics.json
perf_ok=$?

# Validate bench_perf's machine-readable outputs and refresh the repo-root
# copy of the perf summary immediately — not gated on the later benches, so
# a chaos failure can never leave a stale BENCH_perf.json at the root. A
# bench that "succeeded" but wrote broken JSON would silently poison every
# downstream perf-trajectory tool, so unparseable JSON still fails the run.
if [ "$perf_ok" -eq 0 ]; then
  for j in results/BENCH_perf.json results/metrics.json; do
    if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$j"; then
      echo "run_benches: $j is missing or not valid JSON" >&2
      fail=1
    fi
  done
  if [ "$fail" -eq 0 ]; then
    # Keep a repo-root copy where trajectory tooling (and humans skimming
    # the repo) expect it.
    cp results/BENCH_perf.json BENCH_perf.json
  fi
fi

# Multi-tenant fleet scheduler bench (DESIGN.md §13): sequential vs
# concurrent users/sec with bit-identity verification. The bench itself
# exits non-zero if any user's results diverge from the sequential
# reference or the speedup falls below 1.5x at 4 threads; its summary is
# merged into BENCH_perf.json under "fleet" so perf trajectories see one
# file.
run_bench bench_fleet fleet.txt - --out results/BENCH_fleet.json
fleet_ok=$?
if [ "$fleet_ok" -eq 0 ]; then
  if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      results/BENCH_fleet.json; then
    echo "run_benches: results/BENCH_fleet.json is missing or not valid JSON" >&2
    fail=1
  elif [ -f results/BENCH_perf.json ]; then
    if python3 - <<'EOF'
import json
perf = json.load(open("results/BENCH_perf.json"))
perf["fleet"] = json.load(open("results/BENCH_fleet.json"))
json.dump(perf, open("results/BENCH_perf.json", "w"), indent=2)
EOF
    then
      cp results/BENCH_perf.json BENCH_perf.json
    else
      echo "run_benches: merging BENCH_fleet.json into BENCH_perf.json failed" >&2
      fail=1
    fi
  fi
fi

# OBSF container bench (DESIGN.md §14): columnar binary storage vs the
# JSONL text path plus record-once/replay-many fleet traffic. The bench
# itself exits non-zero if the routing scan is below 5x the JSONL path,
# bytes-at-rest exceed 0.5x, or the replayed fleet diverges; its summary is
# merged into BENCH_perf.json under "io" and checked in as BENCH_io.json.
run_bench bench_io io.txt - --out results/BENCH_io.json
io_ok=$?
if [ "$io_ok" -eq 0 ]; then
  if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      results/BENCH_io.json; then
    echo "run_benches: results/BENCH_io.json is missing or not valid JSON" >&2
    fail=1
  else
    cp results/BENCH_io.json BENCH_io.json
    if [ -f results/BENCH_perf.json ]; then
      if python3 - <<'EOF'
import json
perf = json.load(open("results/BENCH_perf.json"))
perf["io"] = json.load(open("results/BENCH_io.json"))
json.dump(perf, open("results/BENCH_perf.json", "w"), indent=2)
EOF
      then
        cp results/BENCH_perf.json BENCH_perf.json
      else
        echo "run_benches: merging BENCH_io.json into BENCH_perf.json failed" >&2
        fail=1
      fi
    fi
  fi
fi

# Observability bench (DESIGN.md §15): metrics-journal wiring and bit-exact
# round-trip, scoped-counter hot-path cost vs the offer path, disabled-span
# cost vs a decode step, and a sampling-profiler window that must name the
# hot frames (tensor.gemm / decode / engine.score). The bench itself exits
# non-zero if any gate fails; its summary is merged into BENCH_perf.json
# under "obs" and checked in as BENCH_obs.json.
run_bench bench_obs obs.txt - --out results/BENCH_obs.json
obs_ok=$?
if [ "$obs_ok" -eq 0 ]; then
  if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      results/BENCH_obs.json; then
    echo "run_benches: results/BENCH_obs.json is missing or not valid JSON" >&2
    fail=1
  else
    cp results/BENCH_obs.json BENCH_obs.json
    if [ -f results/BENCH_perf.json ]; then
      if python3 - <<'EOF'
import json
perf = json.load(open("results/BENCH_perf.json"))
perf["obs"] = json.load(open("results/BENCH_obs.json"))
json.dump(perf, open("results/BENCH_perf.json", "w"), indent=2)
EOF
      then
        cp results/BENCH_perf.json BENCH_perf.json
      else
        echo "run_benches: merging BENCH_obs.json into BENCH_perf.json failed" >&2
        fail=1
      fi
    fi
  fi
fi

run_chaos

if [ "$fail" -ne 0 ]; then
  echo "run_benches: one or more benches missing or failed" >&2
  exit 1
fi

echo ALL_BENCHES_DONE
