#!/usr/bin/env bash
# End-to-end smoke of the coloring service through the shipped binaries:
# starts picasso_serve, fires 8 concurrent picasso_cli remote requests
# (misses, repeats, one client-cancelled, one over-budget rejection), checks
# every returned coloring hash against a local single-shot solve
# (--verify-local), then shuts the daemon down and asserts a clean drain —
# exit 0, stats summary, no leaked spill files, socket unlinked.
#
# Usage: scripts/service_smoke.sh [BUILD_DIR]   (default: ./build)
set -u

BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/examples/picasso_serve"
CLI="$BUILD_DIR/examples/picasso_cli"
[ -x "$SERVE" ] && [ -x "$CLI" ] || {
  echo "service_smoke: binaries not found under $BUILD_DIR" >&2
  exit 2
}

WORK="$(mktemp -d)"
SOCK="$WORK/picasso.sock"
SPILL="$WORK/spill"
mkdir -p "$SPILL"
FAILURES=0

fail() {
  echo "service_smoke: FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

cleanup() {
  [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

# An 8 MiB budget admits the H4 datasets and rejects a materializing
# (--strategy inmemory) H6_3D_631g request, whose projected conflict CSR is
# ~76 MiB, at admission.
"$SERVE" --listen "unix:$SOCK" --budget 8388608 --threads 2 \
         --max-active 2 --spill-dir "$SPILL" > "$WORK/serve.out" 2> "$WORK/serve.err" &
SERVE_PID=$!

for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SERVE_PID" 2> /dev/null || { cat "$WORK/serve.err" >&2; echo "service_smoke: daemon died on startup" >&2; exit 1; }
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "service_smoke: daemon never bound $SOCK" >&2; exit 1; }

echo "service_smoke: daemon up on unix:$SOCK (pid $SERVE_PID)"

# --- wave 1: 8 concurrent requests -----------------------------------------
# 3x H4_1D + 3x H4_2D (every verified against a local solve), one
# mid-solve cancellation (slow-converging params so the cancel lands), and
# one admission rejection.
pids=()
"$CLI" remote H4_1D_sto3g --connect "unix:$SOCK" --tenant t0 --verify-local > "$WORK/c1.out" 2>&1 & pids+=($!)
"$CLI" remote H4_1D_sto3g --connect "unix:$SOCK" --tenant t1 --verify-local > "$WORK/c2.out" 2>&1 & pids+=($!)
"$CLI" remote H4_1D_sto3g --connect "unix:$SOCK" --tenant t2 --verify-local > "$WORK/c3.out" 2>&1 & pids+=($!)
"$CLI" remote H4_2D_sto3g --connect "unix:$SOCK" --tenant t0 --verify-local > "$WORK/c4.out" 2>&1 & pids+=($!)
"$CLI" remote H4_2D_sto3g --connect "unix:$SOCK" --tenant t1 --verify-local > "$WORK/c5.out" 2>&1 & pids+=($!)
"$CLI" remote H4_2D_sto3g --connect "unix:$SOCK" --tenant t2 --verify-local > "$WORK/c6.out" 2>&1 & pids+=($!)
"$CLI" remote H4_3D_sto3g --connect "unix:$SOCK" --percent 0.5 --alpha 1.05 \
       --cancel-after 1 > "$WORK/c7.out" 2>&1 & pids+=($!)
"$CLI" remote H6_3D_631g --connect "unix:$SOCK" --strategy inmemory \
       > "$WORK/c8.out" 2>&1 & pids+=($!)

codes=()
for pid in "${pids[@]}"; do
  wait "$pid"
  codes+=($?)
done

for i in 1 2 3 4 5 6; do
  [ "${codes[$((i - 1))]}" -eq 0 ] || fail "client $i exited ${codes[$((i - 1))]}: $(cat "$WORK/c$i.out")"
  grep -q "local verification MATCH" "$WORK/c$i.out" \
    || fail "client $i not verified against local solve: $(cat "$WORK/c$i.out")"
done
[ "${codes[6]}" -eq 0 ] && grep -q "cancelled by client after" "$WORK/c7.out" \
  || fail "cancellation did not land: $(cat "$WORK/c7.out")"
[ "${codes[7]}" -ne 0 ] || fail "over-budget request was admitted"
grep -q "over-budget" "$WORK/c8.out" && grep -q "exceeds server budget" "$WORK/c8.out" \
  || fail "rejection not structured: $(cat "$WORK/c8.out")"

# Identical concurrent requests must agree with each other (and with the
# local reference checked above).
for d in 1 4; do
  h1=$(grep -o "coloring_hash=[0-9a-f]*" "$WORK/c$d.out")
  h2=$(grep -o "coloring_hash=[0-9a-f]*" "$WORK/c$((d + 1)).out")
  h3=$(grep -o "coloring_hash=[0-9a-f]*" "$WORK/c$((d + 2)).out")
  { [ -n "$h1" ] && [ "$h1" = "$h2" ] && [ "$h1" = "$h3" ]; } \
    || fail "concurrent colorings diverged: '$h1' '$h2' '$h3'"
done

# --- wave 2: repeats are cache hits -----------------------------------------
for d in H4_1D_sto3g H4_2D_sto3g; do
  "$CLI" remote "$d" --connect "unix:$SOCK" --verify-local > "$WORK/hit.out" 2>&1 \
    || fail "cache-hit request failed: $(cat "$WORK/hit.out")"
  grep -q "cache-hit" "$WORK/hit.out" || fail "$d repeat was not a cache hit"
  grep -q "local verification MATCH" "$WORK/hit.out" \
    || fail "$d cached coloring diverged from local solve"
done

"$CLI" remote --connect "unix:$SOCK" --stats > "$WORK/stats.out" 2>&1 \
  || fail "stats request failed"
cat "$WORK/stats.out"
# Wave 2's two repeats are guaranteed hits; concurrent wave-1 duplicates
# may coalesce into more depending on timing.
hits=$(grep -o "cache_hits=[0-9]*" "$WORK/stats.out" | cut -d= -f2)
[ "${hits:-0}" -ge 2 ] || fail "expected cache_hits>=2, got '${hits:-}'"
grep -q "rejected_over_budget=1" "$WORK/stats.out" \
  || fail "expected rejected_over_budget=1"
grep -q "cancelled=1" "$WORK/stats.out" || fail "expected cancelled=1"
grep -q "spill_files_live=0" "$WORK/stats.out" || fail "live spill files remain"

# --- clean shutdown ----------------------------------------------------------
"$CLI" remote --connect "unix:$SOCK" --shutdown > /dev/null 2>&1 \
  || fail "shutdown request failed"
SERVE_EXIT=0
wait "$SERVE_PID" || SERVE_EXIT=$?
SERVE_PID=""
[ "$SERVE_EXIT" -eq 0 ] || fail "picasso_serve exited $SERVE_EXIT"
grep -q "served .* requests" "$WORK/serve.err" || fail "no drain summary"
[ -S "$SOCK" ] && fail "socket not unlinked on shutdown"
leftover=$(find "$SPILL" -name '*.pset' | wc -l)
[ "$leftover" -eq 0 ] || fail "$leftover spill files leaked"

if [ "$FAILURES" -ne 0 ]; then
  echo "service_smoke: FAILED ($FAILURES)" >&2
  exit 1
fi
echo "service_smoke: PASSED (8 concurrent requests, cache hits, cancel,"
echo "over-budget rejection, clean drain)"
