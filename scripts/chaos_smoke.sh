#!/usr/bin/env bash
# Chaos smoke of the coloring service through the shipped binaries: drives
# the failpoint matrix end-to-end and asserts every injected failure is
# either a structured error or a bit-identical recovered solve.
#
#   scenario A (clean daemon): startup janitor sweeps pre-seeded dead-pid
#     spill orphans; admission --degrade downgrades an over-budget plan
#     instead of rejecting (verified against a local solve); a --deadline-ms
#     request answers deadline-exceeded; a stalled raw TCP client is reaped
#     by --idle-timeout while real requests keep flowing.
#   scenario B (PICASSO_FAILPOINTS daemon): an injected reply-send fault is
#     healed by client --retries via the result cache (attempt 2 is a cache
#     hit); an injected ENOSPC on spill writes degrades to an in-memory
#     solve reported as DEGRADED, never a failure.
#   scenario C (crash): kill -9 mid-spill-solve leaves orphan spill files; a
#     restarted daemon on the same spill dir sweeps them at startup.
#
# Usage: scripts/chaos_smoke.sh [BUILD_DIR]   (default: ./build)
set -u

BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/examples/picasso_serve"
CLI="$BUILD_DIR/examples/picasso_cli"
[ -x "$SERVE" ] && [ -x "$CLI" ] || {
  echo "chaos_smoke: binaries not found under $BUILD_DIR" >&2
  exit 2
}

WORK="$(mktemp -d)"
FAILURES=0
SERVE_PID=""

fail() {
  echo "chaos_smoke: FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

cleanup() {
  [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

# A process id that is certainly dead: spawn-and-reap a no-op child.
true & DEAD_PID=$!
wait "$DEAD_PID" 2> /dev/null

wait_for_unix() {  # $1 = socket path
  for _ in $(seq 100); do
    [ -S "$1" ] && return 0
    kill -0 "$SERVE_PID" 2> /dev/null || return 1
    sleep 0.1
  done
  return 1
}

# ---------------------------------------------------------------------------
# Scenario A: clean daemon — janitor, degrade admission, deadline, idle reap.
# ---------------------------------------------------------------------------
SPILL_A="$WORK/spill_a"
mkdir -p "$SPILL_A"
# Pre-seed orphans from a "crashed" previous daemon, plus a foreign file the
# janitor must leave alone.
: > "$SPILL_A/picasso_seed_${DEAD_PID}_1.pset"
: > "$SPILL_A/picasso_seed_${DEAD_PID}_1.pset.colors"
: > "$SPILL_A/unrelated.pset"

env -u PICASSO_FAILPOINTS "$SERVE" --listen tcp:127.0.0.1:0 --budget 8388608 \
    --threads 2 --max-active 2 --spill-dir "$SPILL_A" \
    --admission degrade --idle-timeout 300 \
    > "$WORK/serve_a.out" 2> "$WORK/serve_a.err" &
SERVE_PID=$!
PORT=""
for _ in $(seq 100); do
  PORT=$(sed -n 's/.*listening on tcp:127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/serve_a.out")
  [ -n "$PORT" ] && break
  kill -0 "$SERVE_PID" 2> /dev/null || { cat "$WORK/serve_a.err" >&2; echo "chaos_smoke: daemon A died on startup" >&2; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "chaos_smoke: daemon A never printed its port" >&2; exit 1; }
ADDR="tcp:127.0.0.1:$PORT"
echo "chaos_smoke: daemon A up on $ADDR (pid $SERVE_PID)"

# A stalled raw client: connects, sends nothing, must be reaped by the idle
# timeout without wedging a reader thread.
exec 9<> "/dev/tcp/127.0.0.1/$PORT" || fail "could not open stalled connection"

# Over-budget under --admission degrade: a materializing request is
# admitted on a downgraded plan, reported DEGRADED, and still bit-identical
# to a local solve.
"$CLI" remote H6_3D_631g --connect "$ADDR" --strategy inmemory --verify-local \
       > "$WORK/a_degrade.out" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "degrade-admission request exited $code: $(cat "$WORK/a_degrade.out")"
grep -q "DEGRADED" "$WORK/a_degrade.out" || fail "downgrade not reported: $(cat "$WORK/a_degrade.out")"
grep -q "local verification MATCH" "$WORK/a_degrade.out" \
  || fail "degraded coloring diverged from local solve: $(cat "$WORK/a_degrade.out")"

# A deadline far shorter than the solve (admission degrades the forced
# in-memory plan to fused, which still takes ~0.2 s on a 4-vCPU x86-64
# host): structured deadline-exceeded.
"$CLI" remote H6_3D_631g --connect "$ADDR" --percent 0.5 --alpha 1.05 \
       --strategy inmemory --deadline-ms 40 > "$WORK/a_deadline.out" 2>&1
code=$?
[ "$code" -ne 0 ] || fail "deadline request unexpectedly succeeded"
grep -q "deadline-exceeded" "$WORK/a_deadline.out" \
  || fail "deadline rejection not structured: $(cat "$WORK/a_deadline.out")"

# Give the idle timeout room to reap the stalled connection, then check the
# daemon is still fully live.
sleep 1
"$CLI" remote H4_1D_sto3g --connect "$ADDR" --verify-local > "$WORK/a_live.out" 2>&1 \
  || fail "daemon A unhealthy after chaos: $(cat "$WORK/a_live.out")"
exec 9<&- 9>&-

"$CLI" remote --connect "$ADDR" --stats > "$WORK/a_stats.out" 2>&1 \
  || fail "daemon A stats failed"
cat "$WORK/a_stats.out"
grep -q "orphan_spills_swept=2" "$WORK/a_stats.out" \
  || fail "janitor did not sweep exactly the 2 dead-pid orphans"
grep -q "deadline_exceeded=1" "$WORK/a_stats.out" || fail "expected deadline_exceeded=1"
degraded=$(grep -o "degraded=[0-9]*" "$WORK/a_stats.out" | cut -d= -f2)
[ "${degraded:-0}" -ge 1 ] || fail "expected degraded>=1, got '${degraded:-}'"
grep -q "rejected_over_budget=0" "$WORK/a_stats.out" \
  || fail "degrade admission still rejected something"
idle=$(grep -o "idle_disconnects=[0-9]*" "$WORK/a_stats.out" | cut -d= -f2)
[ "${idle:-0}" -ge 1 ] || fail "stalled client was not idle-reaped (idle_disconnects='${idle:-}')"
[ -f "$SPILL_A/unrelated.pset" ] || fail "janitor removed a foreign file"

"$CLI" remote --connect "$ADDR" --shutdown > /dev/null 2>&1 || fail "daemon A shutdown failed"
A_EXIT=0
wait "$SERVE_PID" || A_EXIT=$?
SERVE_PID=""
[ "$A_EXIT" -eq 0 ] || fail "daemon A exited $A_EXIT"
leftover=$(find "$SPILL_A" -name 'picasso_*.pset*' | wc -l)
[ "$leftover" -eq 0 ] || fail "daemon A leaked $leftover spill files"

# ---------------------------------------------------------------------------
# Scenario B: failpoint daemon — retry heals a send fault, ENOSPC degrades.
# ---------------------------------------------------------------------------
# Budget of the spilling requests in B and C: the encoded size of the input
# (`picasso_cli info`, in MiB). The budgeted engine spills when twice the
# input exceeds the budget, so these requests spill by construction.
ENCODED_MIB=$("$CLI" info H6_3D_631g | sed -n 's/^encoded size *: *\([0-9.]*\) MB$/\1/p')
[ -n "$ENCODED_MIB" ] || { echo "chaos_smoke: cannot read the encoded size of H6_3D_631g" >&2; exit 1; }
SPILL_BUDGET=$(awk -v mib="$ENCODED_MIB" 'BEGIN { printf "%d", mib * 1048576 }')
echo "chaos_smoke: spill budget $SPILL_BUDGET B (H6_3D_631g encodes to $ENCODED_MIB MiB)"

SPILL_B="$WORK/spill_b"
SOCK_B="$WORK/picasso_b.sock"
mkdir -p "$SPILL_B"
PICASSO_FAILPOINTS="wire.send=error@1;spill.write=enospc" \
  "$SERVE" --listen "unix:$SOCK_B" --threads 2 --max-active 2 \
  --spill-dir "$SPILL_B" > "$WORK/serve_b.out" 2> "$WORK/serve_b.err" &
SERVE_PID=$!
wait_for_unix "$SOCK_B" || { cat "$WORK/serve_b.err" >&2; echo "chaos_smoke: daemon B never bound $SOCK_B" >&2; exit 1; }
echo "chaos_smoke: daemon B up on unix:$SOCK_B (pid $SERVE_PID, failpoints armed)"

# The first reply send is injected to fail after the solve was cached:
# attempt 1 sees a transport fault, attempt 2 is answered from the cache.
"$CLI" remote H4_1D_sto3g --connect "unix:$SOCK_B" --retries 3 \
       > "$WORK/b_retry.out" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "retried request exited $code: $(cat "$WORK/b_retry.out")"
grep -q "succeeded on attempt 2" "$WORK/b_retry.out" \
  || fail "expected success on attempt 2: $(cat "$WORK/b_retry.out")"
grep -q "cache-hit" "$WORK/b_retry.out" \
  || fail "retried request did not hit the result cache: $(cat "$WORK/b_retry.out")"

# The spill budget plans a disk spill; every spill write raises injected
# ENOSPC, so the engine must fall back in memory and report the downgrade
# instead of failing.
"$CLI" remote H6_3D_631g --connect "unix:$SOCK_B" --strategy fused \
       --budget "$SPILL_BUDGET" --verify-local > "$WORK/b_enospc.out" 2>&1
code=$?
[ "$code" -eq 0 ] || fail "ENOSPC request exited $code: $(cat "$WORK/b_enospc.out")"
grep -q "DEGRADED" "$WORK/b_enospc.out" && grep -q "ENOSPC" "$WORK/b_enospc.out" \
  || fail "ENOSPC fallback not reported: $(cat "$WORK/b_enospc.out")"
grep -q "local verification MATCH" "$WORK/b_enospc.out" \
  || fail "ENOSPC-degraded coloring diverged from local solve"

"$CLI" remote --connect "unix:$SOCK_B" --shutdown > /dev/null 2>&1 \
  || fail "daemon B shutdown failed"
B_EXIT=0
wait "$SERVE_PID" || B_EXIT=$?
SERVE_PID=""
[ "$B_EXIT" -eq 0 ] || fail "daemon B exited $B_EXIT"
leftover=$(find "$SPILL_B" -name 'picasso_*.pset*' | wc -l)
[ "$leftover" -eq 0 ] || fail "daemon B leaked $leftover spill files"

# ---------------------------------------------------------------------------
# Scenario C: kill -9 mid-spill-solve, restart, janitor sweeps the wreck.
# ---------------------------------------------------------------------------
SPILL_C="$WORK/spill_c"
SOCK_C="$WORK/picasso_c.sock"
mkdir -p "$SPILL_C"
# Slow chunk reads so the spill files are alive on disk long enough to
# catch the daemon mid-solve.
PICASSO_FAILPOINTS="spill.read=delay:400" \
  "$SERVE" --listen "unix:$SOCK_C" --threads 2 --max-active 1 \
  --spill-dir "$SPILL_C" > "$WORK/serve_c.out" 2> "$WORK/serve_c.err" &
SERVE_PID=$!
wait_for_unix "$SOCK_C" || { cat "$WORK/serve_c.err" >&2; echo "chaos_smoke: daemon C never bound $SOCK_C" >&2; exit 1; }
CRASH_PID=$SERVE_PID
echo "chaos_smoke: daemon C up on unix:$SOCK_C (pid $CRASH_PID)"

"$CLI" remote H6_3D_631g --connect "unix:$SOCK_C" --strategy fused \
       --budget "$SPILL_BUDGET" > "$WORK/c_solve.out" 2>&1 &
CLIENT_PID=$!
for _ in $(seq 100); do
  [ -n "$(find "$SPILL_C" -name 'picasso_*.pset' -print -quit)" ] && break
  kill -0 "$CLIENT_PID" 2> /dev/null || break
  sleep 0.1
done
kill -9 "$CRASH_PID" 2> /dev/null
wait "$CRASH_PID" 2> /dev/null
SERVE_PID=""
wait "$CLIENT_PID" 2> /dev/null  # client dies with the daemon; outcome irrelevant
if [ -z "$(find "$SPILL_C" -name 'picasso_*.pset*' -print -quit)" ]; then
  # The solve won the race and cleaned up: seed the orphan the crash would
  # have left, named with the now-dead daemon's pid.
  echo "chaos_smoke: daemon C finished before the kill; seeding its orphan"
  : > "$SPILL_C/picasso_crash_${CRASH_PID}_1.pset"
fi
orphans=$(find "$SPILL_C" -name 'picasso_*.pset*' | wc -l)
echo "chaos_smoke: daemon C killed, $orphans orphan spill file(s) on disk"

env -u PICASSO_FAILPOINTS "$SERVE" --listen "unix:$SOCK_C" --threads 2 \
    --spill-dir "$SPILL_C" > "$WORK/serve_c2.out" 2> "$WORK/serve_c2.err" &
SERVE_PID=$!
wait_for_unix "$SOCK_C" || { cat "$WORK/serve_c2.err" >&2; echo "chaos_smoke: daemon C restart never bound" >&2; exit 1; }

"$CLI" remote --connect "unix:$SOCK_C" --stats > "$WORK/c_stats.out" 2>&1 \
  || fail "restarted daemon stats failed"
cat "$WORK/c_stats.out"
swept=$(grep -o "orphan_spills_swept=[0-9]*" "$WORK/c_stats.out" | cut -d= -f2)
[ "${swept:-0}" -eq "$orphans" ] \
  || fail "restart swept ${swept:-0} orphans, expected $orphans"
[ -z "$(find "$SPILL_C" -name 'picasso_*.pset*' -print -quit)" ] \
  || fail "orphan spill files survived the restart sweep"
# And the recovered daemon still solves correctly.
"$CLI" remote H4_1D_sto3g --connect "unix:$SOCK_C" --verify-local \
       > "$WORK/c_live.out" 2>&1 || fail "restarted daemon unhealthy: $(cat "$WORK/c_live.out")"

"$CLI" remote --connect "unix:$SOCK_C" --shutdown > /dev/null 2>&1 \
  || fail "restarted daemon shutdown failed"
C_EXIT=0
wait "$SERVE_PID" || C_EXIT=$?
SERVE_PID=""
[ "$C_EXIT" -eq 0 ] || fail "restarted daemon exited $C_EXIT"

if [ "$FAILURES" -ne 0 ]; then
  echo "chaos_smoke: FAILED ($FAILURES)" >&2
  exit 1
fi
echo "chaos_smoke: PASSED (janitor sweep, degrade admission, deadline,"
echo "idle reap, retry-through-fault cache hit, ENOSPC fallback, crash+restart)"
