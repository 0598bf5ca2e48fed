#!/usr/bin/env bash
# Drill the distributed campaign backend end to end: a controller
# that demands a shared auth token shards the Plackett-Burman screen
# across three localhost workers, a rogue worker with the wrong token
# is turned away before any lease is granted, one worker is
# SIGKILLed mid-lease, and the campaign must still finish with a rank
# table bit-identical to a single-process run while the manifest
# records the lease reclaim and the rerun host for every migrated
# cell.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j "$(nproc)" --target campaign worker

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
echo "fleet-smoke-token" > "$workdir/fleet.token"
echo "wrong-token" > "$workdir/rogue.token"

# Reference: the same screen in one process under thread isolation.
./build/tools/campaign \
    --workloads gzip,mcf --instructions 100000 \
    --quiet > "$workdir/rank_reference.txt"

# Distributed: port 0 lets the kernel pick; --port-file is the
# rendezvous. --threads 3 keeps three leases in flight so the fleet
# actually shares the load even on a single-core host, and the
# fsync'd journal doubles as a progress probe for timing the kill.
./build/tools/campaign \
    --listen 127.0.0.1:0 --workers 3 --threads 3 \
    --port-file "$workdir/port" \
    --auth-token-file "$workdir/fleet.token" \
    --workloads gzip,mcf --instructions 100000 \
    --journal "$workdir/journal" \
    --manifest-out "$workdir/manifest.jsonl" \
    --quiet > "$workdir/rank_distributed.txt" \
    2> "$workdir/controller.log" &
campaign_pid=$!

for _ in $(seq 1 100); do
    [ -s "$workdir/port" ] && break
    sleep 0.1
done
[ -s "$workdir/port" ] || {
    echo "controller never wrote its port file" >&2
    cat "$workdir/controller.log" >&2
    exit 1
}
port="$(cat "$workdir/port")"

# A rogue worker with the wrong token must be turned away with a
# nonzero exit. It runs before the fleet is complete, so no cell has
# been queued and no lease can have been granted yet.
rogue_rc=0
./build/tools/worker --connect "127.0.0.1:$port" --name rogue \
    --auth-token-file "$workdir/rogue.token" \
    > "$workdir/rogue.log" 2>&1 || rogue_rc=$?
[ "$rogue_rc" -ne 0 ] || {
    echo "the rogue worker was admitted" >&2
    cat "$workdir/rogue.log" >&2
    exit 1
}
echo "rogue worker rejected (exit $rogue_rc)"

./build/tools/worker --connect "127.0.0.1:$port" --name w1 \
    --auth-token-file "$workdir/fleet.token" &
w1=$!
./build/tools/worker --connect "127.0.0.1:$port" --name w2 \
    --auth-token-file "$workdir/fleet.token" &
w2=$!
./build/tools/worker --connect "127.0.0.1:$port" --name w3 \
    --auth-token-file "$workdir/fleet.token" &
w3=$!

# Wait until the fleet has journaled 20 of the 176 cells — every
# worker is then mid-lease — and kill one worker. The controller
# must reclaim its leases, requeue the cells onto the survivors,
# and finish the campaign regardless.
for _ in $(seq 1 600); do
    [ -f "$workdir/journal" ] &&
        [ "$(wc -l < "$workdir/journal")" -ge 21 ] && break
    sleep 0.05
done
kill -9 "$w2"

wait "$campaign_pid"
wait "$w1" "$w3"

diff "$workdir/rank_reference.txt" "$workdir/rank_distributed.txt"
echo "rank tables identical across isolation modes"

python3 - "$workdir/manifest.jsonl" <<'EOF'
import json, sys
records = [json.loads(l) for l in open(sys.argv[1])]
leases = [r for r in records if r["type"] == "lease"]
joined = {r["worker"] for r in leases if r["kind"] == "worker-joined"}
assert joined == {"w1", "w2", "w3"}, joined
assert any(r["kind"] == "worker-lost" and r["worker"] == "w2"
           for r in leases), leases
reclaimed = [r for r in leases if r["kind"] == "lease-reclaimed"]
assert reclaimed, "the killed worker held no lease; raise --instructions"
cells = {(r["benchmark"], r["row"]): r for r in records
         if r["type"] == "cell"}
assert len(cells) == 176, len(cells)
assert {r["host"] for r in cells.values()} <= {"w1", "w2", "w3"}
for r in reclaimed:
    bench, row = r["label"].split(", design row ")
    rerun = cells[(bench, int(row))]
    assert rerun["host"] != "w2", rerun
    print("reclaimed:", r["label"], "-> rerun on", rerun["host"])
print("hosts:", sorted({r["host"] for r in cells.values()}),
      "| reclaims:", len(reclaimed))
# The rogue was refused by the auth gate, before any worker joined.
rejected = [i for i, r in enumerate(leases)
            if r["kind"] == "auth-rejected" and r["worker"] == "rogue"]
assert rejected, "no auth-rejected record for the rogue worker"
first_join = min(i for i, r in enumerate(leases)
                 if r["kind"] == "worker-joined")
assert rejected[0] < first_join, leases
EOF

echo "Distributed smoke passed."
