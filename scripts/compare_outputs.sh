#!/usr/bin/env bash
# Compares the deterministic bench outputs of two build trees.
#
#   scripts/compare_outputs.sh PARENT_BUILD CHANGE_BUILD
#
# Each argument is a CMake build directory that holds bench/ (for example
# `build` of a checkout of the parent commit, and `build` of the change).
# From each tree it runs
#   bench_table2 --quick, bench_table3 --quick, bench_table4 --quick,
#   bench_figure2 --quick --seed 42, bench_robustness --chaos --quick
# and diffs their stdout, with the chaos bench's `wrote <path>` line dropped
# and each bench's exit status appended. The pretrained-base cache
# (/tmp/odlp_cache) is cleared before each tree's runs, so each tree
# pretrains its own base model instead of reading the other's.
#
# Exits 0 when every output is identical, 1 when any differs (the diffs are
# printed), 2 on a usage error. Outputs are kept in the printed directory.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
for b in "$1" "$2"; do
  if [ ! -x "$b/bench/bench_table2" ]; then
    echo "$0: $b/bench/bench_table2 not found; build the tree first" >&2
    exit 2
  fi
done
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
OUT=$(mktemp -d -t odlp_compare.XXXXXX)

BENCHES=(
  "table2|bench_table2 --quick"
  "table3|bench_table3 --quick"
  "table4|bench_table4 --quick"
  "figure2|bench_figure2 --quick --seed 42"
  "chaos|bench_robustness --chaos --quick"
)

run_tree() {  # run_tree <build dir> <label>
  local build=$1 label=$2 entry name cmd work
  rm -rf /tmp/odlp_cache
  for entry in "${BENCHES[@]}"; do
    name=${entry%%|*}
    cmd=${entry#*|}
    work="$OUT/work-$label-$name"
    mkdir -p "$work"
    echo "[$label] $cmd" >&2
    # shellcheck disable=SC2086
    (cd "$work" && "$build/bench/"$cmd) 2>/dev/null | grep -v '^wrote ' \
      > "$OUT/$label-$name.txt"
    echo "exit ${PIPESTATUS[0]}" >> "$OUT/$label-$name.txt"
  done
}

run_tree "$PARENT" parent
run_tree "$CHANGE" change

status=0
for entry in "${BENCHES[@]}"; do
  name=${entry%%|*}
  if diff -u "$OUT/parent-$name.txt" "$OUT/change-$name.txt"; then
    echo "identical: $name"
  else
    echo "DIFFERS:   $name"
    status=1
  fi
done
echo "outputs in $OUT"
exit $status
