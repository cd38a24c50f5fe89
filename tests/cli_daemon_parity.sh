#!/usr/bin/env bash
# One request path, checked end to end: every case runs through
# msoc_plan in-process and through a live msoc_pland, and the two runs
# must agree on the exit status, on the "error:" line, and (when they
# succeed) on the JSON document modulo wall-clock fields; a successful
# request sent again must come back byte for byte.  The client
# runs PlanRequest::validate() and loads any .soc before it sends, so a
# rejected request never reaches the daemon; test_plan_service checks that the daemon's
# own decoding rejects the same values with the same message.
#
# Usage: cli_daemon_parity.sh MSOC_PLAN MSOC_PLAND DATA_DIR SCRATCH_DIR
set -u
plan=$1 pland=$2 data=$3 tmp=$4
rm -rf "$tmp" && mkdir -p "$tmp"
sock="$tmp/pland.sock"
"$pland" --socket "$sock" --threads 2 > "$tmp/daemon.log" 2>&1 &
daemon=$!
trap 'kill $daemon 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  "$plan" --daemon "$sock" --ping > /dev/null 2>&1 && break
  sleep 0.1
done

normalize() {
  sed -E 's/"(total_)?wall_ms": -?[0-9.eE+-]+/"\1wall_ms": 0/g' "$1"
}

status=0
fail() { echo "FAIL $*"; status=1; }

# check NAME EXPECTED_EXIT MSOC_PLAN_ARGS...
check() {
  local name=$1 want=$2
  shift 2
  "$plan" "$@" --json "$tmp/$name.local.json" \
    > /dev/null 2> "$tmp/$name.local.err"
  local local_status=$?
  "$plan" --daemon "$sock" "$@" --json "$tmp/$name.daemon.json" \
    > /dev/null 2> "$tmp/$name.daemon.err"
  local daemon_status=$?
  echo "$name: exit $local_status in-process, $daemon_status via daemon"
  cat "$tmp/$name.local.err" "$tmp/$name.daemon.err"
  ! grep -q 'planning in-process' "$tmp/$name.daemon.err" ||
    fail "$name: the daemon did not answer"
  [ "$local_status" -eq "$want" ] || fail "$name: expected exit $want"
  [ "$local_status" -eq "$daemon_status" ] || fail "$name: exit statuses differ"
  diff <(grep 'error:' "$tmp/$name.local.err") \
       <(grep 'error:' "$tmp/$name.daemon.err") ||
    fail "$name: error messages differ"
  if [ "$want" -eq 0 ]; then
    diff <(normalize "$tmp/$name.local.json") \
         <(normalize "$tmp/$name.daemon.json") ||
      fail "$name: documents differ"
    # The repeat is a memo hit served through the socket: the first
    # daemon reply's bytes, wall_ms included.
    "$plan" --daemon "$sock" "$@" --json "$tmp/$name.repeat.json" \
      > /dev/null 2> "$tmp/$name.repeat.err" ||
      fail "$name: the repeated request failed"
    cmp "$tmp/$name.daemon.json" "$tmp/$name.repeat.json" ||
      fail "$name: the memo hit differs from the first daemon reply"
  fi
}

check epsilon_inf 1 --frontier --bench d695m --widths 16 --epsilon inf
grep -q 'epsilon needs a finite number' "$tmp/epsilon_inf.daemon.err" ||
  fail "epsilon_inf: unexpected message"

check wide_window 0 --frontier --soc "$data/d695m_power.soc" --widths 16 \
  --power-window 3000000000:400
grep -q '"window_cycles": 3000000000' "$tmp/wide_window.daemon.json" ||
  fail "wide_window: window length not in the document"

check width_wrap 1 --bench d695m --width 4294967328
grep -qF '[1, 2147483647]' "$tmp/width_wrap.daemon.err" ||
  fail "width_wrap: message does not name the range"

check plan_widths 1 --bench d695m --widths 16
grep -q 'a plan request takes one width, not widths' \
  "$tmp/plan_widths.daemon.err" || fail "plan_widths: unexpected message"

check plan_too_narrow 1 --bench d695m --width 4
grep -q 'analog wrapper needs more TAM wires than the SOC has' \
  "$tmp/plan_too_narrow.daemon.err" ||
  fail "plan_too_narrow: unexpected message"

# A .soc the client cannot load fails there, with the in-process text:
# the daemon only ever receives a .soc that parsed.
check soc_missing 1 --frontier --soc "$tmp/no_such.soc" --widths 16
grep -qF "$tmp/no_such.soc: cannot open" "$tmp/soc_missing.daemon.err" ||
  fail "soc_missing: message does not name the path"

check soc_directory 1 --frontier --soc "$data" --widths 16
grep -qF "$data: cannot read" "$tmp/soc_directory.daemon.err" ||
  fail "soc_directory: message does not name the path"

: > "$tmp/empty.soc"
check soc_empty 1 --frontier --soc "$tmp/empty.soc" --widths 16
grep -qF "$tmp/empty.soc: no SocName or module" "$tmp/soc_empty.daemon.err" ||
  fail "soc_empty: unexpected message"

check soc_malformed 1 --frontier --soc "$data/d695m_zero_patterns.soc" \
  --widths 16
grep -qF "$data/d695m_zero_patterns.soc:10: Patterns must be positive" \
  "$tmp/soc_malformed.daemon.err" || fail "soc_malformed: unexpected message"

"$plan" --daemon "$sock" --shutdown > /dev/null
wait $daemon
exit $status
