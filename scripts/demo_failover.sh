#!/usr/bin/env bash
# End-to-end demo of replication and hot failover on localhost:
#
#   * lmerge_served (the primary) merges 2 redundant publishers over TCP,
#     which both vanish mid-stream;
#   * lmerge_standby attaches from the start as a standby, shadows the
#     primary's merged output, then jumpstarts mid-stream: it receives a
#     snapshot-equivalent checkpoint plus a cut certificate and dedups the
#     already-covered prefix by count;
#   * the primary is killed (SIGKILL, no goodbye) — the standby promotes
#     itself and the surviving publishers reconnect to it, replaying their
#     tapes through the ordinary join protocol;
#   * the standby's view of the whole stream (pre-cut prefix + its own
#     output) must validate and be logically equivalent to a single input
#     tape — zero events lost or duplicated across the failover;
#   * the received checkpoint is archived and inspected with
#     `lmerge_inspect --checkpoint` (a v4 blob naming payloads by their
#     broadcast-dictionary ids), and the standby's metrics snapshot
#     must show a real transfer (bytes received, elements deduped).
#
# Usage: scripts/demo_failover.sh [build-dir] [primary-port] [standby-port]

set -euo pipefail

BUILD_DIR=${1:-build}
PRIMARY_PORT=${2:-7664}
STANDBY_PORT=${3:-7665}
TOOLS="$BUILD_DIR/tools"
WORK=$(mktemp -d /tmp/lmerge_failover.XXXXXX)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

for tool in lmerge_gen lmerge_served lmerge_standby lmerge_publish \
            lmerge_inspect lmerge_stats; do
  [ -x "$TOOLS/$tool" ] || {
    echo "error: $TOOLS/$tool not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  }
done

echo "== generating 2 divergent physical presentations of one stream =="
"$TOOLS/lmerge_gen" "$WORK/a.lmst" --inserts=4000 --variant-seed=1 \
    --disorder=0.3 --split=0.3 --finalize
"$TOOLS/lmerge_gen" "$WORK/b.lmst" --inserts=4000 --variant-seed=2 \
    --disorder=0.3 --split=0.3 --finalize

echo "== starting the primary on port $PRIMARY_PORT =="
# drain-publishers is set unreachably high: this server is not meant to
# exit — it gets killed.
"$TOOLS/lmerge_served" --port="$PRIMARY_PORT" \
    --drain-publishers=99 --quiet &
PRIMARY_PID=$!

echo "== standby attaches, shadows, and jumpstarts mid-stream =="
# The jumpstart delay lets the publishers make progress first, so it
# exercises a real snapshot + non-zero dedup horizon instead of an empty
# from-scratch start.  --retry rides out the primary still binding its
# port: no startup sleep.
"$TOOLS/lmerge_standby" --primary-port="$PRIMARY_PORT" \
    --port="$STANDBY_PORT" --out="$WORK/standby.lmst" \
    --checkpoint-out="$WORK/snapshot.lmck" \
    --metrics-out="$WORK/standby_metrics.json" \
    --jumpstart-delay-ms=1200 --drain-publishers=2 --quiet \
    --retry=40 --connect-timeout-ms=500 &
STANDBY_PID=$!
# Gate on the primary actually reporting the standby's session, so the
# shadow feed covers the whole merged stream before any publisher starts.
until "$TOOLS/lmerge_stats" 127.0.0.1 "$PRIMARY_PORT" --count=1 --json \
      2>/dev/null | grep -q '"subscribers": *[1-9]'; do
  sleep 0.05
done

echo "== publishers stream the first 2000 elements of their tapes to the primary =="
# Both stop mid-stream (--kill-after: no BYE), before the tapes' final
# stable freezes every event, so the primary still holds live merge state
# when the standby jumpstarts and the snapshot has payloads to pool.
"$TOOLS/lmerge_publish" 127.0.0.1 "$PRIMARY_PORT" "$WORK/a.lmst" \
    --name=replica-a --kill-after=2000 &
A_PID=$!
"$TOOLS/lmerge_publish" 127.0.0.1 "$PRIMARY_PORT" "$WORK/b.lmst" \
    --name=replica-b --kill-after=2000
wait "$A_PID"
# The standby archives the checkpoint right after its jumpstart completes;
# gate the kill on that file so the snapshot transfer is never cut off
# (the event-loop stack sends both prefixes well inside the 1200ms
# jumpstart delay, so a fixed sleep would race it).
until [ -s "$WORK/snapshot.lmck" ]; do sleep 0.05; done
sleep 0.5   # let the primary's fan-out drain to the standby

echo "== killing the primary (SIGKILL) =="
kill -9 "$PRIMARY_PID" 2>/dev/null
wait "$PRIMARY_PID" 2>/dev/null || true

echo "== survivors reconnect to the promoted standby on port $STANDBY_PORT =="
# The replayed tapes are redundant presentations of everything the standby
# already merged; the restored state absorbs the duplicates.  --retry rides
# out the promotion window instead of a fixed sleep.
"$TOOLS/lmerge_publish" 127.0.0.1 "$STANDBY_PORT" "$WORK/a.lmst" \
    --name=replica-a --retry=40 --connect-timeout-ms=500 &
A2_PID=$!
"$TOOLS/lmerge_publish" 127.0.0.1 "$STANDBY_PORT" "$WORK/b.lmst" \
    --name=replica-b --retry=40 --connect-timeout-ms=500
wait "$A2_PID"
wait "$STANDBY_PID"

echo "== verifying: standby output equivalent to a single input tape =="
"$TOOLS/lmerge_inspect" "$WORK/standby.lmst" --equiv="$WORK/a.lmst"

echo "== verifying: archived checkpoint inspects cleanly =="
"$TOOLS/lmerge_inspect" --checkpoint "$WORK/snapshot.lmck" \
    | tee "$WORK/snapshot_inspect.txt"
grep -q "checkpoint v4" "$WORK/snapshot_inspect.txt"
grep -q "cut:" "$WORK/snapshot_inspect.txt"
# The standby held every payload the primary had fanned out, so the
# archived blob names at least one by its broadcast-dictionary id.
grep -qE "[(: ][1-9][0-9]* references" "$WORK/snapshot_inspect.txt"

echo "== verifying: replication metrics tell the jumpstart story =="
python3 - "$WORK" <<'EOF'
import json, sys

work = sys.argv[1]
metrics = json.load(open(f"{work}/standby_metrics.json"))

rx_bytes = metrics["replica.checkpoint.rx.bytes"]
rx_chunks = metrics["replica.checkpoint.rx.chunks"]
deduped = metrics["replica.dedup.elements"]
feed = metrics["replica.feed.elements"]
replayed = metrics["replica.replay.elements"]

assert rx_bytes > 0 and rx_chunks > 0, (
    f"no checkpoint transfer: {rx_bytes} bytes in {rx_chunks} chunks")
assert deduped > 0, "jumpstart happened before any output; no dedup horizon"
assert feed >= deduped, (feed, deduped)
assert replayed == feed - deduped, (replayed, feed, deduped)
print(f"   jumpstart: {rx_bytes} checkpoint bytes in {rx_chunks} chunks; "
      f"{feed} feed elements = {deduped} deduped + {replayed} replayed")
EOF

echo "DEMO PASSED: the standby jumpstarted from a mid-stream checkpoint,"
echo "survived the primary's SIGKILL, and its reconstituted output equals"
echo "the uninterrupted reference — zero events lost or duplicated."
