#!/bin/sh
# Observability smoke test, standalone version of the rules in
# test/dune (for CI or by-hand checks):
#   1. solve a tiny instance with --stats-json, validate against the
#      rtlsat.solve/1 schema (forensics section included)
#   2. force the w61 ICP stall with a short deadline, check the trace
#      carries icp_stall + heartbeat, and profile it — the diagnosis
#      must name slow ICP convergence
#   3. rtlsat metrics: OpenMetrics exposition from a solve report
#   4. flight-recorder round trip: a --no-split timeout with no --trace
#      must still leave a dump that rtlsat profile diagnoses
#   5. cross-run ledger: solves append rtlsat.run/1 records (env
#      fingerprint included, "unknown"/clean outside a checkout),
#      rtlsat runs lists them, and trace-diff exits 1 on the committed
#      w61 verdict flip
#   6. SIGUSR1 stress: ~150 signals at 10 ms intervals during a 2 s
#      solve each dump the flight recorder, and no dump may fail
set -eu

here=$(dirname "$0")
root=$(cd "$here/.." && pwd)

dune build --root "$root" bin/rtlsat.exe test/validate_stats.exe \
  test/check_trace.exe test/check_openmetrics.exe

rtlsat="$root/_build/default/bin/rtlsat.exe"

out=$(mktemp /tmp/rtlsat_stats.XXXXXX.json)
trace=$(mktemp /tmp/rtlsat_w61.XXXXXX.jsonl)
profile=$(mktemp /tmp/rtlsat_w61.XXXXXX.profile)
om=$(mktemp /tmp/rtlsat_metrics.XXXXXX.om)
flight=$(mktemp /tmp/rtlsat_w61.XXXXXX.flight)
ledger=$(mktemp /tmp/rtlsat_ledger.XXXXXX.jsonl)
err=$(mktemp /tmp/rtlsat_usr1.XXXXXX.err)
nogit=$(mktemp -d /tmp/rtlsat_nogit.XXXXXX)
trap 'rm -f "$out" "$trace" "$profile" "$om" "$flight" "$ledger" "$err"; rm -rf "$nogit"' EXIT

# 1. stats schema
"$rtlsat" solve -c b01 -p 1 -k 5 --no-ledger --stats-json "$out"
"$root/_build/default/test/validate_stats.exe" "$out"

# 2. stall forensics + trace-replay profiler
"$rtlsat" solve "$root/test/corpus/w61_wrap_corner.rtl" -e hdpll \
  --timeout 2 --no-ledger --trace "$trace"
"$root/_build/default/test/check_trace.exe" "$trace" icp_stall var name constr
"$rtlsat" profile "$trace" > "$profile"
grep -q "slow ICP convergence is the dominant behaviour" "$profile"

# 3. OpenMetrics exposition (rtlsat metrics on the step-1 report, and
#    --metrics-out straight from a solve); both must satisfy the
#    line-format checker
"$rtlsat" metrics "$out" -o "$om"
"$root/_build/default/test/check_openmetrics.exe" "$om"
"$rtlsat" solve -c b01 -p 1 -k 5 --metrics-out "$om" --no-ledger > /dev/null
"$root/_build/default/test/check_openmetrics.exe" "$om"

# 4. flight-recorder round trip: trace OFF, timeout -> exit 1 plus a
#    dump the profiler can read; icp_stall and heartbeat events must
#    survive the ring, and the diagnosis must still fire
if "$rtlsat" solve "$root/test/corpus/w61_wrap_corner.rtl" -e hdpll \
  --no-split --timeout 2 --no-ledger --flight-recorder "$flight" > /dev/null; then
  echo "FAIL: w61 --no-split did not time out (expected exit 1)" >&2
  exit 1
fi
"$root/_build/default/test/check_trace.exe" "$flight" icp_stall var name constr
"$root/_build/default/test/check_trace.exe" "$flight" heartbeat seq decisions pps
"$root/_build/default/test/check_trace.exe" "$flight" recorder recorded dropped cap
"$rtlsat" profile "$flight" > "$profile"
grep -q "slow ICP convergence is the dominant behaviour" "$profile"
grep -q "heartbeat" "$profile"

# 5. cross-run ledger round trip: two solves append two parseable
#    rtlsat.run/1 records with the environment fingerprint, rtlsat
#    runs reproduces them (text and rtlsat.runs/1 JSON), a solve run
#    outside any checkout records git_rev "unknown" and a clean tree,
#    and trace-diff on the committed divergent w61 traces names the
#    first divergent key event and exits 1 on the verdict flip
rm -f "$ledger"
"$rtlsat" solve -c b01 -p 1 -k 5 --ledger "$ledger" > /dev/null
"$rtlsat" solve -c b01 -p 1 -k 5 --ledger "$ledger" > /dev/null
[ "$(wc -l < "$ledger")" -eq 2 ]
grep -q '"schema":"rtlsat.run/1"' "$ledger"
grep -q '"git_rev"' "$ledger"
"$rtlsat" runs --ledger "$ledger" | grep -q "b01_1(5)"
"$rtlsat" runs --ledger "$ledger" --json | grep -q '"schema":"rtlsat.runs/1"'
"$rtlsat" runs --ledger "$ledger" --engine hdpll+s+p --last 1 --json \
  | grep -q '"engine":"hdpll+s+p"'
(cd "$nogit" && env -u GIT_DIR "$rtlsat" solve -c b01 -p 1 -k 5 \
  --ledger "$nogit/ledger.jsonl" > /dev/null)
grep -q '"git_rev":"unknown","git_dirty":false' "$nogit/ledger.jsonl"
if "$rtlsat" trace-diff "$root/test/fixtures/w61_split_on.jsonl" \
  "$root/test/fixtures/w61_split_off.jsonl" > "$profile"; then
  echo "FAIL: trace-diff did not exit 1 on the verdict flip" >&2
  exit 1
fi
grep -q "first divergence at key event" "$profile"

# 6. SIGUSR1 stress.  Signals sent before the handler is armed would
#    kill the solve, so wait for SIGUSR1 (bit 0x200) in the process's
#    caught-signal mask where /proc shows it, else give it 0.5 s.
"$rtlsat" solve -c b13 -p 2 -k 100 --timeout 2 --no-ledger \
  --flight-recorder "$flight" > /dev/null 2> "$err" &
pid=$!
if [ -r "/proc/$pid/status" ]; then
  tries=0
  while [ $tries -lt 200 ]; do
    cgt=$(awk '/^SigCgt/ { print $2 }' "/proc/$pid/status" 2> /dev/null || true)
    [ -n "$cgt" ] && [ $((0x$cgt & 0x200)) -ne 0 ] && break
    sleep 0.01
    tries=$((tries + 1))
  done
else
  sleep 0.5
fi
sent=0
while [ $sent -lt 150 ] && kill -USR1 "$pid" 2> /dev/null; do
  sent=$((sent + 1))
  sleep 0.01
done
rc=0
wait "$pid" || rc=$?
if [ $rc -gt 1 ]; then
  echo "FAIL: solve under SIGUSR1 exited $rc" >&2
  exit 1
fi
if grep -q "cannot dump" "$err"; then
  echo "FAIL: $(grep -c "cannot dump" "$err") flight dumps failed under SIGUSR1" >&2
  exit 1
fi
grep -q "flight recorder dumped to" "$err"

echo "smoke_obs: all checks passed"
