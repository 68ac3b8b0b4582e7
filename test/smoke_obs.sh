#!/bin/sh
# Observability smoke test (wired into `dune runtest` — see the rule in
# test/dune).  The stats schema, the w61 stall diagnosis, the flight
# recorder round trip and trace-diff have their own rules there; this
# script covers what needs a shell:
#   1. cross-run ledger: solves append rtlsat.run/1 records (env
#      fingerprint included, "unknown"/clean outside a checkout) and
#      rtlsat runs lists them, as text and as rtlsat.runs/1 JSON
#   2. SIGUSR1 stress: ~150 signals at 10 ms intervals during a 2 s
#      solve each dump the flight recorder, and no dump may fail
# Pass the rtlsat binary as $1 (the dune rule does); standalone runs
# build it first.
set -eu

here=$(dirname "$0")

if [ $# -ge 1 ]; then
  # absolute, because step 1 runs it from another directory
  rtlsat=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
else
  root=$(cd "$here/.." && pwd)
  dune build --root "$root" bin/rtlsat.exe
  rtlsat="$root/_build/default/bin/rtlsat.exe"
fi

flight=$(mktemp /tmp/rtlsat_usr1.XXXXXX.flight)
ledger=$(mktemp /tmp/rtlsat_ledger.XXXXXX.jsonl)
err=$(mktemp /tmp/rtlsat_usr1.XXXXXX.err)
nogit=$(mktemp -d /tmp/rtlsat_nogit.XXXXXX)
trap 'rm -f "$flight" "$ledger" "$err"; rm -rf "$nogit"' EXIT

# 1. cross-run ledger round trip: two solves append two parseable
#    rtlsat.run/1 records with the environment fingerprint, rtlsat
#    runs reproduces them (text and rtlsat.runs/1 JSON), and a solve
#    run outside any checkout records git_rev "unknown" and a clean
#    tree
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

# 2. SIGUSR1 stress.  Signals sent before the handler is armed would
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
