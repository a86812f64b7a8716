#!/usr/bin/env bash
# End-to-end demo of the networked LMerge service on localhost:
#
#   * lmerge_served merges 3 redundant publishers over real TCP;
#   * one replica is killed mid-stream (drops the connection without BYE)
#     and rejoins by replaying its tape;
#   * a subscriber captures the live merged output;
#   * the captured stream must validate and be logically equivalent to a
#     single input tape — zero events lost or duplicated despite the crash;
#   * lmerge_stats monitors the live server throughout: the crashed
#     replica's lag must spike while it is down and recover via the rejoin,
#     and the per-input contributions must sum to the merged output TDB
#     size (checked against both the final metrics snapshot and the tape);
#   * the HTTP endpoint is scraped mid-run: /healthz and /readyz answer,
#     /metrics parses as OpenMetrics with nonzero end-to-end latency
#     samples, and /metrics.json reports the live publish->fanout
#     p50/p99;
#   * the subscriber measures publish->delivery latency externally from
#     the wire stamps (--latency).
#
# Usage: scripts/demo_net.sh [build-dir] [port] [http-port]

set -euo pipefail

BUILD_DIR=${1:-build}
PORT=${2:-7654}
HTTP_PORT=${3:-$((PORT + 1))}
TOOLS="$BUILD_DIR/tools"
WORK=$(mktemp -d /tmp/lmerge_demo.XXXXXX)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

for tool in lmerge_gen lmerge_served lmerge_publish lmerge_subscribe \
            lmerge_inspect lmerge_stats; do
  [ -x "$TOOLS/$tool" ] || {
    echo "error: $TOOLS/$tool not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  }
done

echo "== generating 3 divergent physical presentations of one stream =="
"$TOOLS/lmerge_gen" "$WORK/a.lmst" --inserts=5000 --variant-seed=1 \
    --disorder=0.3 --split=0.3 --finalize
"$TOOLS/lmerge_gen" "$WORK/b.lmst" --inserts=5000 --variant-seed=2 \
    --disorder=0.3 --split=0.3 --finalize
"$TOOLS/lmerge_gen" "$WORK/c.lmst" --inserts=5000 --variant-seed=3 \
    --disorder=0.3 --split=0.3 --finalize

echo "== starting lmerge_served on port $PORT =="
# 4 publisher sessions total: a, b (crashes), b's rejoin, c.
"$TOOLS/lmerge_served" --port="$PORT" --out="$WORK/merged.lmst" \
    --metrics-out="$WORK/metrics.json" --http-port="$HTTP_PORT" \
    --drain-publishers=4 --quiet &
SERVER_PID=$!

echo "== subscriber attaches for the live merged stream =="
# --retry rides out the server still binding its port: no startup sleep.
"$TOOLS/lmerge_subscribe" 127.0.0.1 "$PORT" "$WORK/subscribed.lmst" \
    --validate --latency --retry=40 --connect-timeout-ms=500 \
    2> "$WORK/subscriber.log" &
SUBSCRIBER_PID=$!

echo "== lmerge_stats monitor polls the live server in the background =="
( i=0
  while "$TOOLS/lmerge_stats" 127.0.0.1 "$PORT" --count=1 --json \
        > "$WORK/poll_$(printf '%04d' "$i").json" 2>/dev/null; do
    i=$((i + 1))
    sleep 0.05
  done ) &
POLLER_PID=$!
# Gate on the server actually reporting the subscriber session, so the
# capture covers the whole merged stream (instead of sleeping and hoping
# the handshake won the race against the publishers below).
until "$TOOLS/lmerge_stats" 127.0.0.1 "$PORT" --count=1 --json 2>/dev/null \
      | grep -q '"subscribers": *[1-9]'; do
  sleep 0.05
done

echo "== publishing: replica-b is killed mid-stream, then rejoins =="
"$TOOLS/lmerge_publish" 127.0.0.1 "$PORT" "$WORK/a.lmst" --name=replica-a &
A_PID=$!
"$TOOLS/lmerge_publish" 127.0.0.1 "$PORT" "$WORK/b.lmst" --name=replica-b \
    --kill-after=2000
# Let replica-a finish its full tape so the leader's stable point is final,
# then capture the dead replica-b's lag spike before the rejoin starts.
wait "$A_PID"
sleep 0.2
"$TOOLS/lmerge_stats" 127.0.0.1 "$PORT" --count=1 --json \
    > "$WORK/stats_after_crash.json"
"$TOOLS/lmerge_publish" 127.0.0.1 "$PORT" "$WORK/b.lmst" \
    --name=replica-b-rejoin &
# The event-loop transport serves a replayed (fully fast-forwarded) tape
# faster than the 50ms poll cadence, so deterministically record one poll
# that saw the fresh input before moving on (inputs persist in the stats
# table, so this converges as soon as the rejoin handshake lands).
until "$TOOLS/lmerge_stats" 127.0.0.1 "$PORT" --count=1 --json \
      > "$WORK/poll_rejoin.json" 2>/dev/null && \
      grep -q '"peer": *"replica-b-rejoin"' "$WORK/poll_rejoin.json"; do
  sleep 0.02
done
echo "== scraping the live HTTP metrics/health endpoints =="
python3 - "$HTTP_PORT" <<'EOF'
import json, re, sys, urllib.request

base = f"http://127.0.0.1:{sys.argv[1]}"

health = urllib.request.urlopen(f"{base}/healthz", timeout=5).read().decode()
assert health.strip() == "ok", health
ready = urllib.request.urlopen(f"{base}/readyz", timeout=5).read().decode()
assert ready.strip() == "ready", ready

text = urllib.request.urlopen(f"{base}/metrics", timeout=5).read().decode()
assert text.rstrip("\n").endswith("# EOF"), "missing OpenMetrics terminator"
line_re = re.compile(
    r"^(# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|histogram)"
    r"|[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? -?[0-9]+"
    r"|# EOF)$")
for line in text.rstrip("\n").split("\n"):
    assert line_re.match(line), f"unparseable OpenMetrics line: {line!r}"
count = int(re.search(r"^latency_publish_to_fanout_us_count (\d+)$",
                      text, re.M).group(1))
assert count > 0, "no end-to-end latency samples in the live scrape"

snap = json.load(urllib.request.urlopen(f"{base}/metrics.json", timeout=5))
e2e = snap["latency.publish_to_fanout_us"]
for stage in ("latency.rx_to_merge_us", "latency.merge_us",
              "latency.merge_to_fanout_us", "latency.fanout_us"):
    assert snap[stage]["count"] > 0, f"{stage} recorded nothing"
print(f"   live /metrics: {count} end-to-end samples, publish->fanout "
      f"p50={e2e['p50']}us p99={e2e['p99']}us")
EOF
"$TOOLS/lmerge_publish" 127.0.0.1 "$PORT" "$WORK/c.lmst" --name=replica-c

wait "$SERVER_PID"
wait "$SUBSCRIBER_PID" || true   # subscriber exits when the server drains
wait "$POLLER_PID" || true       # poller exits once the server is gone

echo "== verifying: merged output equivalent to a single input tape =="
"$TOOLS/lmerge_inspect" "$WORK/merged.lmst" --equiv="$WORK/a.lmst"

echo "== verifying: per-input attribution and crash/rejoin lag story =="
"$TOOLS/lmerge_inspect" "$WORK/merged.lmst" > "$WORK/merged_inspect.txt"
python3 - "$WORK" <<'EOF'
import glob, json, re, sys

work = sys.argv[1]
metrics = json.load(open(f"{work}/metrics.json"))

# 1. Per-input contributions sum to the merged output TDB size, and the
#    final exact snapshot agrees with the tape lmerge_inspect read back.
contributed = {name: value for name, value in metrics.items()
               if re.fullmatch(r"merge\.input\.\d+\.contributed", name)}
out_inserts = metrics["merge.out.inserts"]
assert len(contributed) == 4, f"expected 4 merge inputs: {contributed}"
assert sum(contributed.values()) == out_inserts, (contributed, out_inserts)
tape_inserts = int(re.search(r"(\d+) inserts",
                             open(f"{work}/merged_inspect.txt").read())
                   .group(1))
assert out_inserts == tape_inserts, (out_inserts, tape_inserts)
print(f"   attribution: {sorted(contributed.values())} inputs sum to the "
      f"merged TDB size ({out_inserts} inserts, tape agrees)")

# 2. Lag spike: while replica-b was down it was disconnected and strictly
#    behind the leading replica's stable point.
crash = json.load(open(f"{work}/stats_after_crash.json"))
rows = {r["peer"]: r for r in crash["inputs"]}
leader = max(r["stable_point"] for r in crash["inputs"])
b = rows["replica-b"]
assert not b["connected"], "replica-b should be disconnected after the kill"
lag = leader - b["stable_point"]
assert lag > 0, f"expected a lag spike on the dead replica, got {lag}"
print(f"   crash: replica-b died {lag} behind the leader")

# 3. Recovery: the rejoin replayed the tape and caught back up — in the
#    final snapshot only the dead replica-b input is still behind the
#    merged stable point.
stable = metrics["merge.stable"]
points = {name: value for name, value in metrics.items()
          if re.fullmatch(r"merge\.input\.\d+\.stable_point", name)}
behind = [name for name, value in points.items() if value < stable]
assert len(behind) == 1, f"only the crashed input should lag: {behind}"
# The live polls must have seen the rejoin appear as a 5th peer-session
# view (4 merge inputs; the rejoin is a fresh input, the dead one stays).
polls = [json.load(open(p)) for p in sorted(glob.glob(f"{work}/poll_*.json"))
         if open(p).read(1)]
assert any(any(r["peer"] == "replica-b-rejoin" for r in poll["inputs"])
           for poll in polls), "no poll observed the rejoined replica"
print(f"   rejoin: {len(polls)} live polls; lag recovered, only the dead "
      f"input remains behind (stable {stable})")
EOF

echo "== subscriber-side publish->delivery latency (wire stamps) =="
grep "publish->delivery" "$WORK/subscriber.log"

echo "DEMO PASSED: merged stream is valid and logically equivalent (no"
echo "events lost or duplicated despite the mid-stream crash + rejoin),"
echo "and the live stats told the same story: contributions sum to the"
echo "merged TDB size, lag spiked at the crash and recovered on rejoin;"
echo "the HTTP endpoint served health and end-to-end latency live."
