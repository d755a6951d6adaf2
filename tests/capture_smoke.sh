#!/usr/bin/env bash
# End-to-end smoke for the live capture front-end, driven exactly the way an
# operator would: `shedmon capture` listens on ephemeral loopback UDP and
# HTTP ports, `shedmon replay` blasts a generated trace into it, /healthz is
# scraped mid-run, and a SIGTERM must drain cleanly — results table printed,
# per-bin CSV written, exit code zero. A second leg feeds a TCP listener at
# the shipping capture defaults as fast as the socket takes the records:
# busy bins must not stall the sender into late drops.
#
# usage: capture_smoke.sh <path-to-shedmon_cli>
set -euo pipefail

CLI=$(readlink -f "${1:?usage: capture_smoke.sh <path-to-shedmon_cli>}")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

"$CLI" generate --preset cesca2 --duration 3 --seed 23 --out trace.smt >/dev/null

"$CLI" capture --listen-udp 0 --serve 0 \
  --queries counter,flows --capacity 5e6 \
  --csv bins.csv --metrics-out metrics.prom \
  >cap.out 2>cap.err &
pid=$!

for _ in $(seq 200); do
  grep -q '^running' cap.out 2>/dev/null && break
  sleep 0.02
done
UDP_PORT=$(sed -n 's#^capturing udp://127.0.0.1:\([0-9]*\).*#\1#p' cap.out)
HTTP_PORT=$(sed -n 's#^serving http://127.0.0.1:\([0-9]*\).*#\1#p' cap.out)
[ -n "$UDP_PORT" ] || { echo "FAIL: no 'capturing udp://' banner"; cat cap.out; exit 1; }
[ -n "$HTTP_PORT" ] || { echo "FAIL: no 'serving' banner"; cat cap.out; exit 1; }

# Paced rather than blast-rate: loopback UDP can overflow the socket buffer
# on a loaded CI box, and this smoke asserts delivery, not shedding.
"$CLI" replay trace.smt --udp "$UDP_PORT" --pps 50000 >replay.out
grep -q '^replayed' replay.out || { echo "FAIL: replay reported nothing"; cat replay.out; exit 1; }

# Mid-run scrape: the pipeline is live while the capture loop owns it.
python3 - "http://127.0.0.1:$HTTP_PORT/healthz" <<'PY' >healthz.json
import sys, urllib.request
print(urllib.request.urlopen(sys.argv[1], timeout=5).read().decode())
PY
grep -q '"status":"ok"' healthz.json || {
  echo "FAIL: /healthz not ok mid-capture"; cat healthz.json; exit 1; }

# Give the capture loop a moment to drain the datagrams, then ask for a
# clean shutdown. SIGTERM must produce a graceful stop: capture stats, the
# results table, and exit code 0.
sleep 1
kill -TERM "$pid"
wait "$pid" || { echo "FAIL: capture exited non-zero after SIGTERM"; cat cap.err; exit 1; }

grep -q '^capture: ' cap.out || { echo "FAIL: no capture stats line"; cat cap.out; exit 1; }
grep -q 'accuracy error' cap.out || { echo "FAIL: no results table"; cat cap.out; exit 1; }
[ -s bins.csv ] || { echo "FAIL: --csv wrote nothing"; exit 1; }
grep -q 'shedmon_capture_packets_total' metrics.prom || {
  echo "FAIL: metrics lack shedmon_capture_packets_total"; cat metrics.prom | head; exit 1; }

# The capture must have decoded a healthy share of the replayed datagrams
# (loopback UDP may shed a few under load, but near-total loss is a bug).
python3 - <<'PY' || { echo "FAIL: capture saw too few packets"; cat cap.out; exit 1; }
import re
out = open("cap.out").read()
sent = int(re.search(r"replayed (\d+)/", open("replay.out").read()).group(1))
got = int(re.search(r"capture: (\d+) frames", out).group(1))
assert got >= sent * 0.9, (got, sent)
PY

# TCP leg: lossless framed stream, unpaced, default queue and late slack.
# A denser trace (~28k pkts/s, so most 100 ms bins hold well over 2048
# packets): a capture that keeps slots until their bin closes stalls on
# such bins and loses their tail as late drops.
"$CLI" generate --preset cesca2 --duration 2 --seed 23 --flows-per-s 2500 \
  --out dense.smt >/dev/null
"$CLI" capture --listen-tcp 0 --serve 0 --queries counter,flows --capacity 5e6 \
  >tcp.out 2>tcp.err &
pid=$!
for _ in $(seq 200); do
  grep -q '^running' tcp.out 2>/dev/null && break
  sleep 0.02
done
TCP_PORT=$(sed -n 's#^capturing tcp://127.0.0.1:\([0-9]*\).*#\1#p' tcp.out)
HTTP_PORT=$(sed -n 's#^serving http://127.0.0.1:\([0-9]*\).*#\1#p' tcp.out)
[ -n "$TCP_PORT" ] || { echo "FAIL: no 'capturing tcp://' banner"; cat tcp.out; exit 1; }
"$CLI" replay dense.smt --tcp "$TCP_PORT" >tcp_replay.out
SENT=$(sed -n 's#^replayed \([0-9]*\)/.*#\1#p' tcp_replay.out)
[ -n "$SENT" ] || { echo "FAIL: tcp replay reported nothing"; cat tcp_replay.out; exit 1; }

# Wait (bounded) until /stats accounts for every record, pushed or dropped;
# the wall clock keeps closing bins, which republishes the stats. Then
# SIGTERM must drain.
python3 - "http://127.0.0.1:$HTTP_PORT/stats" "$SENT" <<'PY' || {
import json, sys, time, urllib.request
for _ in range(100):
    stats = json.loads(urllib.request.urlopen(sys.argv[1], timeout=5).read())
    if stats["capture_packets"] + stats["capture_dropped"] >= int(sys.argv[2]):
        sys.exit(0)
    time.sleep(0.1)
sys.exit(f"{stats['capture_packets']} pushed + {stats['capture_dropped']} dropped"
         f" < {sys.argv[2]} sent")
PY
  echo "FAIL: tcp capture did not account for every record"; kill -TERM "$pid"; exit 1; }
kill -TERM "$pid"
wait "$pid" || { echo "FAIL: tcp capture exited non-zero after SIGTERM"; cat tcp.err; exit 1; }
grep -q 'accuracy error' tcp.out || { echo "FAIL: no tcp results table"; cat tcp.out; exit 1; }
python3 - "$SENT" <<'PY' || { echo "FAIL: tcp capture lost records"; cat tcp.out; exit 1; }
import re, sys
out = open("tcp.out").read()
sent = int(sys.argv[1])
got = int(re.search(r"capture: \d+ frames \(\d+ bytes\), (\d+) decoded", out).group(1))
late = int(re.search(r"capture drops: \d+ total \(.* (\d+) late", out).group(1))
assert late == 0, f"{late} late drops"
assert got == sent, (got, sent)
PY

echo "capture smoke: OK"
