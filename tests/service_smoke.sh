#!/usr/bin/env bash
# Service smoke test: drives the gpustld daemon end to end over its
# AF_UNIX socket, and its TCP listener for the same answers. Both run the
# same handshake, so every leg passes the daemon's --secret.
#
#   service_smoke.sh <gpustld> <gpustl-client> <gpustlc>
#
# Covers, in order:
#   1. daemon startup + ping/status round trips;
#   2. a mixed submit batch: a normal campaign (report byte-identical to
#      `gpustlc campaign --report` for the same manifest) and a degraded
#      one (impossible stage deadline -> client exit 3, report identical
#      to gpustlc run with the same budget);
#   3. event-stream ordering (queued first, admitted second, complete
#      last) over --json;
#   4. warm second run against the shared cache;
#   5. TCP leg: the same server answers on --listen too — ping and a
#      warm submit over TCP render the byte-identical report;
#   6. graceful SIGTERM drain (exit 0, `drained` summary on stdout).
set -u

GPUSTLD=$1
CLIENT=$2
GPUSTLC=$3

WORK=$(mktemp -d "${TMPDIR:-/tmp}/gpustl_smoke.XXXXXX")
DAEMON_PID=
fail() {
  echo "service_smoke: FAIL: $*" >&2
  [ -f "$WORK/daemon.log" ] && sed 's/^/  daemon: /' "$WORK/daemon.log" >&2
  exit 1
}
cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -KILL "$DAEMON_PID" 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

SOCK=$WORK/gpustld.sock

cat > "$WORK/tiny.asm" <<'EOF'
.entry tiny
.blocks 1
.threads 32
    S2R R1, SR_TID
    MOV32I R0, 4
    IMUL R3, R1, R0
    IADD32I R2, R3, 0x10000
    MOV32I R4, 0x1234
    IADD R5, R4, R1
    STG [R2+0x0], R5
    EXIT
EOF
cat > "$WORK/manifest.txt" <<'EOF'
# smoke manifest: one compacted entry, one carried
tiny.asm DU compact
tiny.asm SP carry
EOF

# --- 1. startup -------------------------------------------------------------
"$GPUSTLD" --socket "$SOCK" --workers 2 --cache-dir "$WORK/cache" \
  --listen 127.0.0.1:0 --secret smoke > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  grep -q "listening" "$WORK/daemon.log" 2>/dev/null && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
grep -q "listening" "$WORK/daemon.log" || fail "daemon never announced socket"

"$CLIENT" --socket "$SOCK" --secret smoke ping > /dev/null || fail "ping"
"$CLIENT" --socket "$SOCK" --secret smoke status | grep -q '"queue_depth"' \
  || fail "status missing queue depth"

# --- 2. normal submit: report byte-identical to gpustlc ---------------------
"$CLIENT" --socket "$SOCK" --secret smoke submit \
  --manifest "$WORK/manifest.txt" \
  --tenant smoke --priority high --report "$WORK/report_daemon.txt" \
  > "$WORK/submit1.out" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "normal submit exited $rc: $(cat "$WORK/submit1.out")"
[ -s "$WORK/report_daemon.txt" ] || fail "daemon report missing/empty"

(cd "$WORK" && "$GPUSTLC" campaign manifest.txt --report report_direct.txt) \
  > /dev/null 2>&1 || fail "gpustlc campaign (direct)"
cmp -s "$WORK/report_daemon.txt" "$WORK/report_direct.txt" \
  || fail "daemon report differs from gpustlc report"

# --- degraded submit: same budget, same bytes, exit 3 -----------------------
"$CLIENT" --socket "$SOCK" --secret smoke submit \
  --manifest "$WORK/manifest.txt" \
  --tenant smoke --stage-deadline 0.000000001 \
  --report "$WORK/report_daemon_deg.txt" > "$WORK/submit_deg.out" 2>&1
rc=$?
[ "$rc" -eq 3 ] || fail "degraded submit exited $rc (want 3)"

(cd "$WORK" && "$GPUSTLC" campaign manifest.txt --deadline 0.000000001 \
  --report report_direct_deg.txt) > /dev/null 2>&1
rc=$?
[ "$rc" -eq 3 ] || fail "gpustlc degraded campaign exited $rc (want 3)"
cmp -s "$WORK/report_daemon_deg.txt" "$WORK/report_direct_deg.txt" \
  || fail "degraded daemon report differs from gpustlc report"

# --- 3. event ordering + 4. warm cache --------------------------------------
cache_misses() {
  "$CLIENT" --socket "$SOCK" --secret smoke status \
    | sed -n 's/.*"cache":{[^}]*"misses":\([0-9]*\).*/\1/p'
}
cache_hits() {
  "$CLIENT" --socket "$SOCK" --secret smoke status \
    | sed -n 's/.*"cache":{[^}]*"hits":\([0-9]*\).*/\1/p'
}
misses_before=$(cache_misses)
hits_before=$(cache_hits)

"$CLIENT" --socket "$SOCK" --secret smoke submit \
  --manifest "$WORK/manifest.txt" \
  --tenant other --json > "$WORK/events.ndjson" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "warm --json submit exited $rc"

first=$(head -n 1 "$WORK/events.ndjson")
second=$(sed -n 2p "$WORK/events.ndjson")
last=$(tail -n 1 "$WORK/events.ndjson")
case "$first" in *'"event":"queued"'*) ;; *) fail "first event not queued: $first";; esac
case "$second" in *'"event":"admitted"'*) ;; *) fail "second event not admitted: $second";; esac
case "$last" in *'"event":"complete"'*) ;; *) fail "last event not complete: $last";; esac
grep -q '"event":"stage"' "$WORK/events.ndjson" || fail "no stage events"
grep -q '"event":"entry-done"' "$WORK/events.ndjson" || fail "no entry-done events"

# The warm run replays content the first submit stored: every fault sim
# hits the shared store, so service-wide misses stay flat and hits grow.
misses_after=$(cache_misses)
hits_after=$(cache_hits)
[ "$misses_after" = "$misses_before" ] \
  || fail "warm run recomputed fault sims ($misses_before -> $misses_after misses)"
[ "$hits_after" -gt "$hits_before" ] \
  || fail "warm run never hit the shared store ($hits_before -> $hits_after hits)"

# --- 5. TCP leg: same daemon, same answers over --connect -------------------
PORT=$(sed -n 's/.*listening on tcp [^ :]*:\([0-9][0-9]*\).*/\1/p' \
  "$WORK/daemon.log" | head -n 1)
[ -n "$PORT" ] || fail "daemon never announced its TCP port"
"$CLIENT" --connect "127.0.0.1:$PORT" --secret smoke ping > /dev/null \
  || fail "tcp ping"
"$CLIENT" --connect "127.0.0.1:$PORT" --secret smoke submit \
  --manifest "$WORK/manifest.txt" --tenant smoke \
  --report "$WORK/report_tcp.txt" > /dev/null 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "tcp submit exited $rc"
cmp -s "$WORK/report_tcp.txt" "$WORK/report_direct.txt" \
  || fail "tcp report differs from gpustlc report"

# --- 6. graceful SIGTERM drain ----------------------------------------------
kill -TERM "$DAEMON_PID"
drain_rc=1
for _ in $(seq 1 100); do
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    wait "$DAEMON_PID"
    drain_rc=$?
    break
  fi
  sleep 0.1
done
DAEMON_PID=
[ "$drain_rc" -eq 0 ] || fail "daemon drain exited $drain_rc (want 0)"
grep -q "drained" "$WORK/daemon.log" || fail "daemon never printed drain summary"
grep -q "4 submitted, 3 completed, 1 degraded" "$WORK/daemon.log" \
  || fail "drain summary miscounted jobs"

echo "service_smoke: PASS"
