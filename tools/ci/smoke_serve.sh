#!/usr/bin/env bash
# CI smoke: the slim_serve daemon end to end — start it on a Unix socket,
# ingest a generated experiment pair in TWO epochs through the line
# protocol, LINK after each, SAVE the epoch-2 links, query TOPK/STATS,
# and shut down cleanly. The saved epoch-2 links must be byte-identical
# to a from-scratch `slim_link --min_records 0` over the union of
# everything ingested (the incremental engine applies no record filter) —
# this is the serving determinism contract of docs/SERVING.md. Last, a
# fake daemon that hangs up mid-request must fail the client with exit 2.
#
# Runs locally too:  tools/ci/smoke_serve.sh [build_dir]
set -euo pipefail

BUILD="${1:-build}"
TMP="$(mktemp -d)"
SOCK="$TMP/slim_serve.sock"
DAEMON_PID=""
FAKE_PID=""
trap '[ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null
      [ -n "$FAKE_PID" ] && kill "$FAKE_PID" 2>/dev/null; rm -rf "$TMP"' EXIT

"$BUILD/tools/slim_serve" --version

"$BUILD/tools/slim_generate" --workload cab --experiment \
  --out_prefix "$TMP/serve_" --entities 24 --days 1

# CSV records -> INGEST lines, batched 100 records per protocol line
# (well under the 64 KiB line cap).
csv_to_ingest() { # <A|B> <csv>
  awk -F, -v side="$1" 'NR > 1 {
    rec = rec " " $1 " " $2 " " $3 " " $4; n++
    if (n == 100) { print "INGEST " side rec; rec = ""; n = 0 }
  } END { if (n > 0) print "INGEST " side rec }' "$2"
}
csv_to_ingest A "$TMP/serve_a.csv" > "$TMP/ingest_a.txt"
csv_to_ingest B "$TMP/serve_b.csv" > "$TMP/ingest_b.txt"
HALF_A=$(( ($(wc -l < "$TMP/ingest_a.txt") + 1) / 2 ))
HALF_B=$(( ($(wc -l < "$TMP/ingest_b.txt") + 1) / 2 ))

{
  head -n "$HALF_A" "$TMP/ingest_a.txt"
  head -n "$HALF_B" "$TMP/ingest_b.txt"
  echo "LINK"
  tail -n +"$((HALF_A + 1))" "$TMP/ingest_a.txt"
  tail -n +"$((HALF_B + 1))" "$TMP/ingest_b.txt"
  echo "LINK"
  echo "SAVE $TMP/links_serve.csv"
  echo "STATS"
  echo "TOPK 0 3"
  echo "SHUTDOWN"
} > "$TMP/session.txt"

"$BUILD/tools/slim_serve" --socket "$SOCK" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "smoke_serve: daemon never bound $SOCK" >&2; exit 1; }

# The client exits 3 on any ERR reply, so a protocol regression fails
# the script even before the byte comparison below.
"$BUILD/tools/slim_serve" --connect "$SOCK" \
  < "$TMP/session.txt" > "$TMP/replies.txt"
cat "$TMP/replies.txt"

# SHUTDOWN must end the daemon with exit code 0 and remove the socket.
wait "$DAEMON_PID"
DAEMON_PID=""
[ ! -e "$SOCK" ] || { echo "smoke_serve: socket left behind" >&2; exit 1; }

grep -q "^HELLO slim-serve-v1 " "$TMP/replies.txt"
grep -q "^OK epoch=1 " "$TMP/replies.txt"
grep -q "^OK epoch=2 " "$TMP/replies.txt"
grep -q "^OK saved=" "$TMP/replies.txt"
grep -q "^OK bye$" "$TMP/replies.txt"

# The determinism contract: epoch-2 links byte-identical to a batch run
# over the union of both epochs (= the full generated pair).
"$BUILD/tools/slim_link" --a "$TMP/serve_a.csv" --b "$TMP/serve_b.csv" \
  --out "$TMP/links_batch.csv" --min_records 0
cmp "$TMP/links_batch.csv" "$TMP/links_serve.csv"

# A daemon that dies mid-request: the fake sends the handshake, reads one
# request and closes without a reply. The client must exit 2, not 0.
FAKE="$TMP/fake.sock"
python3 - "$FAKE" <<'PY' &
import socket
import sys

server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
server.bind(sys.argv[1])
server.listen(1)
conn, _ = server.accept()
conn.sendall(b"HELLO slim-serve-v1 build=fake\n")
conn.recv(4096)
conn.close()
PY
FAKE_PID=$!
for _ in $(seq 1 100); do
  [ -S "$FAKE" ] && break
  sleep 0.1
done
CLIENT_RC=0
echo "LINK" | "$BUILD/tools/slim_serve" --connect "$FAKE" > /dev/null ||
  CLIENT_RC=$?
wait "$FAKE_PID"
FAKE_PID=""
[ "$CLIENT_RC" -eq 2 ] || {
  echo "smoke_serve: client exited $CLIENT_RC, not 2, on a hang-up" >&2
  exit 1
}

echo "smoke_serve: OK"
