#!/bin/sh
# Smoke test persistence and sharding end to end.
#
# Part 1 (persistence): boot reprosrv with -store-dir, compute one run,
# wait for its write-behind persist, SIGTERM the daemon, boot a fresh
# one over the same directory and assert the warm daemon serves the
# identical bytes with X-Cache: store -- i.e. from disk, without
# re-simulating.
#
# Part 2 (sharding): boot a two-replica peered pool and assert a
# sharded /v2/sweep streams bytes identical to the same sweep on a
# standalone daemon -- same rows, same grid order, same terminal done
# envelope.
set -eu
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:18771}"
PEER_A="${SMOKE_PEER_A:-127.0.0.1:18772}"
PEER_B="${SMOKE_PEER_B:-127.0.0.1:18773}"
WORK="$(mktemp -d)"
BIN="$WORK/reprosrv"
STORE="$WORK/store"
SRV=""
SRV_A=""
SRV_B=""
cleanup() {
	for pid in "$SRV" "$SRV_A" "$SRV_B"; do
		[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/reprosrv

wait_healthy() {
	for _ in $(seq 1 50); do
		if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "smoke: server on $1 never became healthy"
	cat "$WORK/log."* 2>/dev/null || true
	exit 1
}

fail() { echo "smoke: $1"; exit 1; }

SCENARIO='{"version": 2, "workflow": {"name": "1deg"}, "fleet": {"processors": 16, "reliable": 4}, "spot": {"rate_per_hour": 1.5, "seed": 7, "discount": 0.65}}'

# ---- Part 1: the store survives a restart ----

"$BIN" -addr "$ADDR" -store-dir "$STORE" -quiet >"$WORK/log.1" 2>&1 &
SRV=$!
wait_healthy "$ADDR"

curl -sf -D "$WORK/h1" -X POST "http://$ADDR/v2/run" \
	-H 'Content-Type: application/json' -d "$SCENARIO" >"$WORK/cold"
grep -qi '^X-Cache: miss' "$WORK/h1" || fail "cold run was not a miss"
# The miss is answered before its store write, which lands moments
# later: poll for it, for at most five seconds.
persisted=""
for _ in $(seq 1 50); do
	if curl -sf "http://$ADDR/metrics" | grep -q '^reprosrv_store_writes_total 1$'; then
		persisted=1
		break
	fi
	sleep 0.1
done
[ -n "$persisted" ] || fail "cold run was not persisted"

kill -TERM "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=""

"$BIN" -addr "$ADDR" -store-dir "$STORE" -quiet >"$WORK/log.2" 2>&1 &
SRV=$!
wait_healthy "$ADDR"

curl -sf -D "$WORK/h2" -X POST "http://$ADDR/v2/run" \
	-H 'Content-Type: application/json' -d "$SCENARIO" >"$WORK/warm"
grep -qi '^X-Cache: store' "$WORK/h2" || fail "restarted daemon did not serve from the store"
cmp -s "$WORK/cold" "$WORK/warm" || fail "store served different bytes after restart"
curl -sf "http://$ADDR/metrics" | grep -q '^reprosrv_simulations_total 0$' || fail "restarted daemon re-simulated a stored run"
curl -sf "http://$ADDR/healthz" | grep -q '"store"' || fail "healthz has no store block"

kill -TERM "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=""

# ---- Part 2: a sharded sweep matches the standalone stream ----

SWEEP='{"scenario": {"version": 2, "workflow": {"name": "1deg"}}, "axes": [{"axis": "fleet.processors", "values": [1, 2, 3, 4, 5, 6, 7, 8]}]}'

"$BIN" -addr "$ADDR" -quiet >"$WORK/log.3" 2>&1 &
SRV=$!
wait_healthy "$ADDR"
curl -sf -X POST "http://$ADDR/v2/sweep" \
	-H 'Content-Type: application/json' -d "$SWEEP" >"$WORK/single"
kill -TERM "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=""

"$BIN" -addr "$PEER_A" -peers "$PEER_A,$PEER_B" -self "$PEER_A" -store-dir "$WORK/store-a" -quiet >"$WORK/log.a" 2>&1 &
SRV_A=$!
"$BIN" -addr "$PEER_B" -peers "$PEER_A,$PEER_B" -self "$PEER_B" -store-dir "$WORK/store-b" -quiet >"$WORK/log.b" 2>&1 &
SRV_B=$!
wait_healthy "$PEER_A"
wait_healthy "$PEER_B"

curl -sf -X POST "http://$PEER_A/v2/sweep" \
	-H 'Content-Type: application/json' -d "$SWEEP" >"$WORK/sharded"
cmp -s "$WORK/single" "$WORK/sharded" || fail "sharded sweep differs from the standalone stream"
tail -n 1 "$WORK/sharded" | grep -q '"done"' || fail "sharded sweep has no terminal done envelope"
curl -sf "http://$PEER_A/metrics" | grep -q '^reprosrv_peer_failures_total 0$' || fail "healthy pool recorded peer failures"

echo "smoke ok: store survived a restart on $ADDR; sharded sweep on $PEER_A/$PEER_B matched the standalone stream"
