#!/bin/sh
# CLI surface smoke test (wired into `dune runtest` — see the rule in
# test/dune):
#   1. every registered subcommand answers --help with exit 0, so no
#      refactor can leave a command with a broken term
#   2. the subcommands on the shared exit-code convention document it:
#      0 success / 1 negative finding / 2 invalid input
#   3. the top-level help lists the serve daemon next to solve/sweep
#   4. a bound below 1 is invalid input (exit 2 with a message) on
#      every subcommand that takes one, and so is an unknown circuit or
#      property name, not an uncaught exception
#   5. malformed DIMACS is invalid input for `sat` (exit 2, the file
#      and line in the message), and a bit-blast solve honours a tiny
#      --timeout even though preprocessing alone outlasts it
#   6. a negative or NaN --timeout is invalid input (exit 2), and serve
#      answers ok:false to a negative timeout_s, a non-number timeout_s
#      and an empty sweep, then keeps serving
#   7. solve, sweep and sat all still offer the shared flight-recorder
#      flags (--no-flight-recorder, --flight-recorder FILE)
#   8. command-line errors are invalid input too: an unknown option, an
#      unknown subcommand and a non-integer bound exit 2, not
#      cmdliner's 124
#   9. profile and trace-diff read rtlsat.trace/7 and /8 only: a v9, a
#      v6 or a headerless trace exits 2 with a message naming
#      rtlsat.trace/8
# Pass the rtlsat binary as $1 (the dune rule does); standalone runs
# build it first.
set -eu

here=$(dirname "$0")

if [ $# -ge 1 ]; then
  rtlsat=$1
else
  root=$(cd "$here/.." && pwd)
  dune build --root "$root" bin/rtlsat.exe
  rtlsat="$root/_build/default/bin/rtlsat.exe"
fi

out=$(mktemp /tmp/rtlsat_help.XXXXXX.out)
net=$(mktemp /tmp/rtlsat_help.XXXXXX.rtl)
cnf=$(mktemp /tmp/rtlsat_help.XXXXXX.cnf)
trace=$(mktemp /tmp/rtlsat_help.XXXXXX.jsonl)
trap 'rm -f "$out" "$net" "$cnf" "$trace"' EXIT

# 1. every subcommand answers --help
"$rtlsat" --help=plain > "$out"
grep -q "COMMANDS" "$out"
grep -q "serve" "$out"

for sub in list show solve sweep serve check prove export sat fuzz \
           profile runs trace-diff; do
  "$rtlsat" "$sub" --help=plain > "$out"
done

# 2. the 0/1/2 exit-code convention is documented on the commands that
#    share it
for sub in show solve sweep serve check prove sat fuzz profile runs \
           trace-diff; do
  "$rtlsat" "$sub" --help=plain > "$out"
  grep -q "on a negative finding" "$out"
  grep -q "on unreadable or invalid input" "$out"
done

# 4. bound 0 exits 2 with a message
cat > "$net" <<'NETLIST'
circuit counter
input tick 1
reg r 3 0
node one = const 1 3
node nxt = add r one
node five = const 5 3
node p = ne r five
connect r nxt
output prop p
NETLIST
# expect_exit2 MESSAGE ARGS...: exit 2 with MESSAGE in the output
expect_exit2() {
  msg=$1
  shift
  status=0
  "$rtlsat" "$@" > "$out" 2>&1 || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "$msg" "$out"; then
    echo "smoke_help: '$*' exited $status, expected 2 with '$msg'" >&2
    cat "$out" >&2
    exit 1
  fi
}
expect_exit2 "must be at least 1" solve -c b01 -p 1 -k 0
expect_exit2 "must be at least 1" check "$net" -p prop -k 0
expect_exit2 "must be at least 1" export -c b01 -p 1 -k 0
expect_exit2 "must be at least 1" sweep -c b01 -p 1 --bounds 0,2
expect_exit2 "must be at least 1" prove -c b01 -p 1 --max-k=-1
expect_exit2 "unknown circuit nope" export -c nope -p 1 -k 3
expect_exit2 "unknown property b13_99" export -c b13 -p 99 -k 3

# 5. malformed DIMACS exits 2 with FILE: line N; a 10 ms bit-blast
#    solve reports TIMEOUT (verdict only: the wall time is not checked)
expect_bad_cnf() {
  printf "$1" > "$cnf"
  status=0
  "$rtlsat" sat --no-ledger --no-flight-recorder "$cnf" > "$out" 2>&1 \
    || status=$?
  if [ "$status" -ne 2 ]; then
    echo "smoke_help: sat on '$1' exited $status, expected 2" >&2
    cat "$out" >&2
    exit 1
  fi
  grep -q "$cnf: line $2:" "$out"
}
expect_bad_cnf 'p cnf 2 1\n3 0\n' 2
expect_bad_cnf '1 2 0\np cnf 2 1\n' 1
expect_bad_cnf 'p cnf 2 1\n1 x 0\n' 2

status=0
"$rtlsat" solve -c b13 -p 2 -k 100 -e bitblast --timeout 0.01 --no-ledger \
  --no-flight-recorder > "$out" 2>&1 || status=$?
if [ "$status" -ne 1 ] || ! grep -q "TIMEOUT" "$out"; then
  echo "smoke_help: bit-blast solve ignored --timeout 0.01 (exit $status)" >&2
  cat "$out" >&2
  exit 1
fi

# 6. bad timeouts and empty sweeps are rejected, not run
for t in -1 nan; do
  status=0
  "$rtlsat" solve -c b01 -p 1 -k 5 --timeout="$t" --no-ledger \
    --no-flight-recorder > "$out" 2>&1 || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "timeout" "$out"; then
    echo "smoke_help: solve --timeout=$t exited $status, expected 2" >&2
    cat "$out" >&2
    exit 1
  fi
done
printf '%s\n' \
  '{"op":"solve","id":1,"circuit":"b01","prop":"1","bound":5,"timeout_s":-1}' \
  '{"op":"solve","id":2,"circuit":"b01","prop":"1","bound":5,"timeout_s":"x"}' \
  '{"op":"sweep","id":3,"circuit":"b01","prop":"1","bounds":[]}' \
  '{"op":"ping","id":4}' \
  | "$rtlsat" serve --no-ledger > "$out" 2>/dev/null
for id in 1 2 3; do
  if ! grep -q "\"id\":$id,\"ok\":false" "$out"; then
    echo "smoke_help: serve request $id was not rejected" >&2
    cat "$out" >&2
    exit 1
  fi
done
if ! grep -q '"id":4,"ok":true,"op":"ping"' "$out"; then
  echo "smoke_help: serve stopped answering after the rejected requests" >&2
  cat "$out" >&2
  exit 1
fi

# 7. the shared flight-recorder spec rides solve, sweep and sat
for sub in solve sweep sat; do
  "$rtlsat" "$sub" --help=plain > "$out"
  for flag in --no-flight-recorder --flight-recorder=FILE; do
    if ! grep -q -- "$flag" "$out"; then
      echo "smoke_help: '$sub --help' does not list $flag" >&2
      exit 1
    fi
  done
done

# 8. command-line errors exit 2
for args in "solve -c b01 -p 1 -k 5 --no-such-flag" "no-such-command" \
            "solve -c b01 -p 1 -k abc"; do
  status=0
  # shellcheck disable=SC2086
  "$rtlsat" $args > "$out" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "smoke_help: '$args' exited $status, expected 2" >&2
    cat "$out" >&2
    exit 1
  fi
done

# 9. only trace/7 and /8 are read, by every trace reader
fixtures="$here/fixtures"
expect_unsupported() {
  status=0
  "$rtlsat" "$@" > "$out" 2>&1 || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "rtlsat.trace/8" "$out"; then
    echo "smoke_help: '$*' exited $status, expected 2 naming rtlsat.trace/8" >&2
    cat "$out" >&2
    exit 1
  fi
}
v9="$fixtures/trace_v9_unsupported.jsonl"
v8="$fixtures/trace_v8.jsonl"
expect_unsupported trace-diff "$v9" "$v8"
expect_unsupported trace-diff "$v8" "$v9"
expect_unsupported profile "$v9"
printf '%s\n' '{"ev":"header","t":0,"schema":"rtlsat.trace/6"}' \
  '{"ev":"done","t":0.1,"result":"unsat","conflicts":0,"decisions":0}' > "$trace"
expect_unsupported profile "$trace"
printf '%s\n' '{"ev":"decide","t":0.1,"kind":"activity","lvl":1,"var":3}' \
  '{"ev":"done","t":0.2,"result":"sat","conflicts":0,"decisions":1}' > "$trace"
expect_unsupported profile "$trace"
expect_unsupported trace-diff "$trace" "$v8"

echo "smoke_help: all checks passed"
