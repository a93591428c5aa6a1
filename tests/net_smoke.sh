#!/usr/bin/env bash
# Transport smoke test: one gpustld server on --listen and --socket,
# gpustl-client on --connect and --socket, gpustl-worker --connect, over
# real TCP and AF_UNIX sockets.
#
#   net_smoke.sh <gpustld> <gpustl-client> <gpustl-worker> <gpustlc>
#
# Covers, in order:
#   1. startup on both endpoints, ping/status on each;
#   2. transport failures exit 5: connection refused, wrong secret (on
#      both endpoints); --checkpoint with --connect is a usage error,
#      and --connect refuses a unix: endpoint;
#   3. submit on each endpoint: report byte-identical to `gpustlc
#      campaign --report`;
#   4. client-side connection chaos (conn-drop on an event read) on each
#      endpoint: the client reconnects, resumes its event stream with no
#      duplicated and no lost seq, exits 0, and the report is still
#      byte-identical;
#   5. remote workers: a gpustl-worker --connect serves a cold campaign
#      through the daemon's work broker; a SIGKILLed worker must not harm
#      the daemon, and a replacement worker picks up the next campaign;
#   6. daemon-side chaos (handshake-fail + conn-drop on event writes):
#      the client retries the handshake, resumes the stream, and the
#      report is still byte-identical;
#   7. shutdown op over TCP stops the one server (exit 0) and removes
#      the socket file.
set -u

GPUSTLD=$1
CLIENT=$2
WORKER=$3
GPUSTLC=$4

SECRET=smoke-secret
WORK=$(mktemp -d "${TMPDIR:-/tmp}/gpustl_net_smoke.XXXXXX")
DAEMON_PID=
DAEMON2_PID=
WORKER_PIDS=
fail() {
  echo "net_smoke: FAIL: $*" >&2
  [ -f "$WORK/daemon.log" ] && sed 's/^/  daemon: /' "$WORK/daemon.log" >&2
  [ -f "$WORK/daemon2.log" ] && sed 's/^/  daemon2: /' "$WORK/daemon2.log" >&2
  exit 1
}
cleanup() {
  for pid in $DAEMON_PID $DAEMON2_PID $WORKER_PIDS; do
    kill -KILL "$pid" 2>/dev/null
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

tcp_port() {  # tcp_port <logfile>
  sed -n 's/.*listening on tcp [^ :]*:\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1
}

seq_gapless() {  # seq_gapless <events.ndjson>
  awk 'match($0, /"seq":[0-9]+/) {
         s = substr($0, RSTART + 6, RLENGTH - 6) + 0
         if (s != ++n) exit 1
       }
       END { exit n > 0 ? 0 : 1 }' "$1"
}

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
# A second program so later campaigns are cold in the shared store and
# the work broker has real units to hand to remote workers.
sed 's/0x1234/0x4321/' "$WORK/tiny.asm" > "$WORK/tiny2.asm"
sed 's/0x1234/0x2468/' "$WORK/tiny.asm" > "$WORK/tiny3.asm"

cat > "$WORK/manifest.txt" <<'EOF'
tiny.asm DU compact
tiny.asm SP carry
EOF
cat > "$WORK/manifest2.txt" <<'EOF'
tiny2.asm DU compact
tiny2.asm SP carry
tiny2.asm SFU compact reverse
EOF
cat > "$WORK/manifest3.txt" <<'EOF'
tiny3.asm DU compact
tiny3.asm SFU compact
EOF

# --- 1. startup on both endpoints --------------------------------------------
SOCK=$WORK/gpustld.sock
"$GPUSTLD" --socket "$SOCK" --listen 127.0.0.1:0 \
  --secret "$SECRET" --workers 2 --cache-dir "$WORK/cache" \
  --distrib-dir "$WORK/ddir" --distrib-stale 5 \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  grep -q "listening on tcp" "$WORK/daemon.log" 2>/dev/null && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
PORT=$(tcp_port "$WORK/daemon.log")
[ -n "$PORT" ] || fail "daemon never announced its TCP port"
ADDR=127.0.0.1:$PORT
endpoint() {  # endpoint TCP|UNIX — sets ep to that endpoint's client flags
  if [ "$1" = TCP ]; then ep=(--connect "$ADDR"); else ep=(--socket "$SOCK"); fi
}

for EP in TCP UNIX; do
  endpoint "$EP"
  "$CLIENT" "${ep[@]}" --secret "$SECRET" ping > /dev/null \
    || fail "$EP ping"
  "$CLIENT" "${ep[@]}" --secret "$SECRET" status \
    | grep -q '"queue_depth"' || fail "$EP status missing queue depth"
done

# --- 2. transport failures exit 5, a usage error 2 --------------------------
"$CLIENT" --connect 127.0.0.1:1 --retries 2 ping > /dev/null 2>&1
rc=$?
[ "$rc" -eq 5 ] || fail "connection-refused ping exited $rc (want 5)"

for EP in TCP UNIX; do
  endpoint "$EP"
  "$CLIENT" "${ep[@]}" --secret wrong-secret \
    submit --manifest "$WORK/manifest.txt" > /dev/null 2>&1
  rc=$?
  [ "$rc" -eq 5 ] || fail "$EP wrong-secret submit exited $rc (want 5)"
done

"$CLIENT" --connect "$ADDR" --secret "$SECRET" submit \
  --manifest "$WORK/manifest.txt" --checkpoint "$WORK/ckpt" \
  > /dev/null 2>&1
rc=$?
[ "$rc" -eq 2 ] || fail "--checkpoint with --connect exited $rc (want 2)"
[ -e "$WORK/ckpt" ] && fail "--checkpoint with --connect created its dir"
# --socket is the one spelling of a unix socket on the client.
"$CLIENT" --connect "unix:$SOCK" --secret "$SECRET" ping > /dev/null 2>&1 \
  && fail "--connect unix:<path> was accepted (the client spells it --socket)"

(cd "$WORK" && "$GPUSTLC" campaign manifest.txt --report report_direct.txt) \
  > /dev/null 2>&1 || fail "gpustlc campaign (direct)"

for EP in TCP UNIX; do
  endpoint "$EP"
  # --- 3. submit, report byte-identical ------------------------------------
  "$CLIENT" "${ep[@]}" --secret "$SECRET" submit \
    --manifest "$WORK/manifest.txt" --tenant smoke \
    --report "$WORK/report_$EP.txt" > "$WORK/submit_$EP.out" 2>&1
  rc=$?
  [ "$rc" -eq 0 ] || fail "$EP submit exited $rc: $(cat "$WORK/submit_$EP.out")"
  cmp -s "$WORK/report_$EP.txt" "$WORK/report_direct.txt" \
    || fail "$EP report differs from gpustlc report"

  # --- 4. client-side connection chaos -------------------------------------
  # Drop the connection on the client's 2nd event read: the client must
  # reconnect, resubmit with after_seq, and see a gapless stream.
  "$CLIENT" "${ep[@]}" --secret "$SECRET" \
    --chaos 'conn-drop@event#2' --chaos-seed 7 submit \
    --manifest "$WORK/manifest.txt" --tenant chaos --json \
    --report "$WORK/report_chaos_$EP.txt" \
    > "$WORK/events_chaos_$EP.ndjson" 2> "$WORK/chaos_$EP.err"
  rc=$?
  [ "$rc" -eq 0 ] \
    || fail "$EP chaos submit exited $rc: $(cat "$WORK/chaos_$EP.err")"
  grep -q "injecting conn-drop" "$WORK/chaos_$EP.err" \
    || fail "$EP client chaos never fired"
  seq_gapless "$WORK/events_chaos_$EP.ndjson" \
    || fail "$EP resumed event stream has seq gaps or duplicates"
  [ "$(grep -c '"event":"complete"' "$WORK/events_chaos_$EP.ndjson")" -eq 1 ] \
    || fail "$EP resumed stream must end in exactly one terminal event"
  cmp -s "$WORK/report_chaos_$EP.txt" "$WORK/report_direct.txt" \
    || fail "$EP chaos-resumed report differs from gpustlc report"
done

# --- 5. remote workers over the broker --------------------------------------
"$WORKER" --connect "$ADDR" --secret "$SECRET" --owner remote1 \
  --poll-ms 50 > "$WORK/worker1.log" 2>&1 &
W1_PID=$!
WORKER_PIDS=$W1_PID

"$CLIENT" --connect "$ADDR" --secret "$SECRET" submit \
  --manifest "$WORK/manifest2.txt" --tenant remote \
  --report "$WORK/report_remote.txt" > "$WORK/submit_remote.out" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "remote-worker submit exited $rc"
(cd "$WORK" && "$GPUSTLC" campaign manifest2.txt --report report_direct2.txt) \
  > /dev/null 2>&1 || fail "gpustlc campaign (manifest2)"
cmp -s "$WORK/report_remote.txt" "$WORK/report_direct2.txt" \
  || fail "remote-worker report differs from gpustlc report"

# SIGKILL the worker mid-connection: the daemon must shrug (its leases
# die with the session) and keep serving.
kill -KILL "$W1_PID"
wait "$W1_PID" 2>/dev/null
[ $? -eq 137 ] || fail "worker1 should die by SIGKILL"
WORKER_PIDS=
"$CLIENT" --connect "$ADDR" --secret "$SECRET" ping > /dev/null \
  || fail "daemon unhealthy after worker SIGKILL"

# A replacement worker serves the next cold campaign.
"$WORKER" --connect "$ADDR" --secret "$SECRET" --owner remote2 \
  --poll-ms 50 > "$WORK/worker2.log" 2>&1 &
W2_PID=$!
WORKER_PIDS=$W2_PID

"$CLIENT" --connect "$ADDR" --secret "$SECRET" submit \
  --manifest "$WORK/manifest3.txt" --tenant remote \
  --report "$WORK/report_remote3.txt" > /dev/null 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "post-kill submit exited $rc"
(cd "$WORK" && "$GPUSTLC" campaign manifest3.txt --report report_direct3.txt) \
  > /dev/null 2>&1 || fail "gpustlc campaign (manifest3)"
cmp -s "$WORK/report_remote3.txt" "$WORK/report_direct3.txt" \
  || fail "post-kill remote report differs from gpustlc report"

kill -TERM "$W2_PID"
wait "$W2_PID" || fail "worker2 did not drain cleanly on SIGTERM"
WORKER_PIDS=
grep -q "gpustl-worker:" "$WORK/worker2.log" \
  || fail "worker2 printed no exit stats"
# The worker starts before the campaign and the coordinator computes
# inline only after 2 s without a claim, so the worker must have finished
# units, and the broker must have accepted every entry it uploaded.
grep -q "publish rejected" "$WORK/worker2.log" \
  && fail "broker rejected worker2's entries: $(grep -m1 'publish rejected' "$WORK/worker2.log")"
grep -Eq "gpustl-worker: [1-9]" "$WORK/worker2.log" \
  || fail "worker2 completed no units: $(cat "$WORK/worker2.log")"

# --- 6. daemon-side chaos ----------------------------------------------------
# handshake-fail#1 tears the first connection's handshake (client must
# retry); conn-drop@event#3 drops the server's 3rd event write (client
# must resume). The report must still be byte-identical.
"$GPUSTLD" --listen 127.0.0.1:0 --secret "$SECRET" --workers 2 \
  --cache-dir "$WORK/cache2" \
  --chaos 'handshake-fail#1,conn-drop@event#3' --chaos-seed 9 \
  > "$WORK/daemon2.log" 2>&1 &
DAEMON2_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on tcp" "$WORK/daemon2.log" 2>/dev/null && break
  kill -0 "$DAEMON2_PID" 2>/dev/null || fail "chaos daemon died during startup"
  sleep 0.1
done
PORT2=$(tcp_port "$WORK/daemon2.log")
[ -n "$PORT2" ] || fail "chaos daemon never announced its TCP port"

"$CLIENT" --connect "127.0.0.1:$PORT2" --secret "$SECRET" submit \
  --manifest "$WORK/manifest.txt" --json \
  --report "$WORK/report_chaos_daemon.txt" \
  > "$WORK/events_chaos2.ndjson" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "daemon-chaos submit exited $rc"
grep -q "injecting handshake-fail" "$WORK/daemon2.log" \
  || fail "daemon handshake chaos never fired"
grep -q "injecting conn-drop" "$WORK/daemon2.log" \
  || fail "daemon conn-drop chaos never fired"
seq_gapless "$WORK/events_chaos2.ndjson" \
  || fail "daemon-chaos event stream has seq gaps or duplicates"
cmp -s "$WORK/report_chaos_daemon.txt" "$WORK/report_direct.txt" \
  || fail "daemon-chaos report differs from gpustlc report"

kill -TERM "$DAEMON2_PID"
wait "$DAEMON2_PID" || fail "chaos daemon drain failed"
DAEMON2_PID=

# --- 7. shutdown over TCP stops the one server -------------------------------
"$CLIENT" --connect "$ADDR" --secret "$SECRET" shutdown > /dev/null \
  || fail "tcp shutdown op"
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
[ "$drain_rc" -eq 0 ] || fail "daemon exited $drain_rc after tcp shutdown"
grep -q "drained" "$WORK/daemon.log" \
  || fail "daemon never printed its drain summary"
[ -e "$SOCK" ] && fail "daemon left its socket file behind"

echo "net_smoke: PASS"
