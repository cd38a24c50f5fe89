#!/usr/bin/env bash
# Regenerates the golden regression corpus: the exact documents
# msoc_plan writes (wall-clock fields normalized to 0) for
#   * the d695m frontier across the paper's width ladder and a narrowed
#     d695m sweep (3 widths x 3 weights), JSON and CSV (v1 schemas);
#   * a power-constrained frontier over tests/data/d695m_power.soc
#     (v2 schema: 3 budgets x 2 widths) and a sweep over duplicate,
#     unsorted width and budget rungs;
#   * single plans, each as its one-case sweep document and its
#     schedule CSV: d695m at width 32, a powered d695m_power.soc plan
#     whose bound prunes members (--epsilon 5), and an exhaustive one;
#   * a sliding-window frontier and sweep (v4 schemas);
#   * a cold cached sweep (v3 schema, fresh cache directory);
#   * d695m_power.soc replanned from a d695m store, frontier and sweep
#     (v3 schemas; the unconstrained rung splices from the baseline);
#   * infeasible cells: a width below the analog wrappers (per-cell
#     errors) and a digital-only SOC (a whole series fails).
# Every field except wall_ms is deterministic for every --jobs value,
# so a golden mismatch means behaviour changed, not scheduling noise.
#
# Usage: tools/regen_golden.sh [build_dir [out_dir]]
# out_dir defaults to tests/data.  After an intentional behaviour
# change, run it without out_dir and commit the diff; the
# cli_golden_corpus ctest runs it into a scratch directory and diffs
# the result against tests/data.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
out="${2:-$root/tests/data}"
plan="$build/tools/msoc_plan"
data="$root/tests/data"

if [[ ! -x "$plan" ]]; then
  echo "error: $plan not built (pass the build dir as \$1?)" >&2
  exit 1
fi
mkdir -p "$out"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

normalize_json() {
  sed -E 's/"(total_)?wall_ms": -?[0-9.eE+-]+/"\1wall_ms": 0/g'
}

# Result tables end in wall_ms,error; the error field is either quoted
# or free of commas.
normalize_csv() {
  sed -E 's/,-?[0-9][0-9.eE+-]*,("([^"]|"")*"|[^,"]*)$/,0,\1/'
}

# golden NAME EXPECTED_EXIT MSOC_PLAN_ARGS...: writes NAME.json and
# NAME.csv (a result table, or the schedule for a single plan).
golden() {
  local name=$1 want=$2 status=0
  shift 2
  "$plan" "$@" --json "$tmp/$name.json" --csv "$tmp/$name.csv" \
    > /dev/null 2> "$tmp/$name.err" || status=$?
  if [[ $status -ne $want ]]; then
    cat "$tmp/$name.err" >&2
    echo "error: msoc_plan $* exited $status, expected $want" >&2
    exit 1
  fi
  normalize_json < "$tmp/$name.json" > "$out/${name}_golden.json"
  if [[ " $* " == *" --sweep "* || " $* " == *" --frontier "* ]]; then
    normalize_csv < "$tmp/$name.csv" > "$out/${name}_golden.csv"
  else
    cp "$tmp/$name.csv" "$out/${name}_golden.csv"
  fi
}

# The SOC digest a frontier run prints.
digest_of() {
  "$plan" --frontier "$@" | sed -nE 's/.*digest ([0-9a-f]{16}).*/\1/p'
}

golden d695m_frontier 0 --frontier --bench d695m
golden d695m_sweep 0 --sweep --bench d695m --widths 16,32,64
golden d695m_power_frontier 0 --frontier --soc "$data/d695m_power.soc" \
  --widths 16,32 --max-power 0,400,250
golden d695m_power_rungs_sweep 0 --sweep --soc "$data/d695m_power.soc" \
  --widths 32,16,32 --max-power 400,0,400
golden d695m_plan 0 --bench d695m --width 32
golden d695m_power_pruned_plan 0 --soc "$data/d695m_power.soc" --width 16 \
  --max-power 400 --epsilon 5
golden d695m_exhaustive_plan 0 --bench d695m --exhaustive --width 24 \
  --wt 0.25
golden d695m_power_window_frontier 0 --frontier \
  --soc "$data/d695m_power.soc" --widths 16,32 --power-window 4096:400
golden d695m_power_window_sweep 0 --sweep \
  --soc "$data/d695m_power.soc" --widths 16,32 --power-window 4096:400
golden d695m_cached_sweep 0 --sweep --bench d695m --widths 16,32 \
  --cache-dir "$tmp/cached"

baseline="$(digest_of --bench d695m --widths 16,32 \
  --cache-dir "$tmp/replan_frontier")"
golden d695m_power_replan_frontier 0 --frontier \
  --soc "$data/d695m_power.soc" --widths 16,32 --max-power 0,400 \
  --cache-dir "$tmp/replan_frontier" --replan-from "$baseline"
"$plan" --sweep --bench d695m --widths 16,32 \
  --cache-dir "$tmp/replan_sweep" > /dev/null
golden d695m_power_replan_sweep 0 --sweep \
  --soc "$data/d695m_power.soc" --widths 16,32 --max-power 0,400 \
  --cache-dir "$tmp/replan_sweep" --replan-from "$baseline"

golden d695m_narrow_frontier 0 --frontier --bench d695m --widths 8,16
golden d695m_narrow_sweep 0 --sweep --bench d695m --widths 8,16 --wt 0.5
golden d695m_digital_sweep 1 --sweep --soc "$data/d695m_digital.soc" \
  --widths 16,32 --wt 0.5

echo "golden corpus regenerated under $out"
