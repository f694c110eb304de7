#!/usr/bin/env bash
# End-to-end crash/repair drill of the sharded `rted serve` service
# through the real binary and its authenticated TCP front-end, with the
# corpus striped over THREE shards:
#
#   1. start a durable 3-shard service on a TCP listener (port 0 = auto)
#      gated by a shared-secret auth token; reject a bad token;
#   2. build the corpus over TCP inserts (global ids stripe across the
#      shard files), then assert the shard layout through `status`;
#   3. drive one exactly-counted query sequence and require the
#      per-shard counters (`serve_shard{K}_queries_total`), the
#      `serve_scatter_fanout` histogram and the service-wide
#      `index_*_queries_total` to match it to the count;
#   4. check pipelined `diff` lines with ids answer the same scripts as
#      one-at-a-time diffs, and a dead id fails only its own line;
#   5. hammer the service with concurrent TCP clients (range / topk /
#      join / distance), all answered without error;
#   6. record reference answers, then `kill -9` the server MID-UPDATE
#      (a client is streaming inserts when it dies) and tear two shard
#      files' tails for good measure;
#   7. `--strict` startup must refuse the damage; default repair mode
#      must recover every shard, report what it dropped, and — after
#      clearing the partially-applied crash-window inserts — answer the
#      reference queries byte-identically over TCP;
#   8. threshold-driven background compaction must clear every shard's
#      tombstone backlog (3 files -> 3 single-segment files);
#   9. the layout is checked on open: `--shards 1` and `--shards 4` must
#      each exit non-zero with the layout error and leave every stripe
#      file byte-identical.
#
# Usage: scripts/serve_roundtrip.sh [path-to-rted-binary]
set -euo pipefail

RTED=${1:-target/release/rted}
if [[ ! -x "$RTED" ]]; then
    echo "rted binary not found at $RTED (build with: cargo build --release)" >&2
    exit 1
fi
WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "serve-roundtrip FAILED: $*" >&2; exit 1; }

TOKEN="drill-secret-$$"
ADDR=""
STARTS=0

start_server() { # args: extra flags...; sets ADDR from the bound port
    STARTS=$((STARTS + 1))
    LOG="$WORK/serve.$STARTS.log"
    "$RTED" serve --index "$WORK/corpus.idx" --shards 3 \
        --tcp 127.0.0.1:0 --auth-token "$TOKEN" --timeout-ms 10000 "$@" \
        2> "$LOG" &
    SERVER_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's/.*listening on tcp \([0-9.:]*\).*/\1/p' "$LOG" | tail -1)
        [[ -n "$ADDR" ]] && return 0
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server died on startup: $(tail -2 "$LOG")"
        sleep 0.1
    done
    fail "server never reported its TCP address"
}

stop_server() {
    echo '{"op":"shutdown"}' | q > /dev/null
    wait "$SERVER_PID" || fail "server exited nonzero"
    SERVER_PID=""
}

# The drill's client: auth token through the environment on purpose, so
# both the flag (server side) and the env var (client side) are covered.
q() { RTED_AUTH_TOKEN="$TOKEN" "$RTED" query --tcp "$ADDR"; }

# --- 1. Fresh 3-shard service over authenticated TCP --------------------
start_server --workers 3
[[ -f "$WORK/corpus.idx" ]] || fail "shard 0 file not created"
grep -q "auth required" "$LOG" || fail "server did not report auth gating"

# A wrong token gets exactly one error line, then the connection drops.
# Raw TCP client (bash /dev/tcp): send ONLY the bad token so the close
# is clean — a pipelined request after it can race the drop into an RST.
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
printf 'wrong-%s\n' "$TOKEN" >&3
bad=$(cat <&3 || true)
exec 3>&- 3<&-
echo "$bad" | grep -q '"ok":false,"error":"authentication failed"' \
    || fail "bad token not rejected: $bad"

# --- 2. Build the corpus over TCP: ids stripe across 3 shard files ------
shapes=(lb rb fb zz mx random)
for i in $(seq 0 29); do
    tree=$("$RTED" generate "${shapes[$((i % 6))]}" $((8 + i % 17)) --seed "$i")
    echo "{\"op\":\"insert\",\"trees\":[\"$tree\"]}"
done | q > "$WORK/insert.out"
[[ $(grep -c '"ok":true' "$WORK/insert.out") -eq 30 ]] || fail "inserts failed: $(grep -m1 '"ok":false' "$WORK/insert.out")"
sed -n 1p "$WORK/insert.out" | grep -q '"ids":\[0\]' || fail "first insert id wrong"
sed -n 30p "$WORK/insert.out" | grep -q '"ids":\[29\]' || fail "last insert id wrong"
[[ -f "$WORK/corpus.idx.shard1" && -f "$WORK/corpus.idx.shard2" ]] || fail "shard files not created"

status=$(echo '{"op":"status"}' | q)
echo "$status" | grep -q '"shards":3' || fail "status shards wrong: $status"
echo "$status" | grep -q '"live":30' || fail "status live wrong: $status"
echo "$status" | grep -q '"shard_live":\[10,10,10\]' || fail "ids did not stripe evenly: $status"
echo "$status" | grep -q "\"tcp\":\"$ADDR\"" || fail "status must surface the TCP address: $status"
echo "$status" | grep -q '"ops":\["range","topk","distance","insert","remove","status","compact","metrics","diff","join","explain","shutdown"\]' \
    || fail "status must list supported ops incl. join and explain: $status"

# --- 3. Exactly-counted striped traffic vs per-shard telemetry ---------
# 2 range + 1 topk + 1 join = 4 striped queries, each one driver pass
# over all 3 shards (fanout histogram count 4): +4 on every shard. Plus
# routed ops, each +1 on every shard its operands live on: distance 0,1
# (shards 0 and 1), diff 0,2 (shards 0 and 2), diff 0,1 (shards 0 and
# 1), diff 2,4 (shards 2 and 1).
# Totals: shard0 = 4+1+1+1 = 7, shard1 = 4+1+1+1 = 7, shard2 = 4+1+1 = 6.
# Each striped query is recorded once into the service-wide index
# totals, whatever the shard count: 2 range, 1 topk, 1 join.
QUERY=$("$RTED" generate mx 14 --seed 99)
{
    echo "{\"op\":\"range\",\"tree\":\"$QUERY\",\"tau\":5}"
    echo "{\"op\":\"range\",\"tree\":\"$QUERY\",\"tau\":9}"
    echo "{\"op\":\"topk\",\"tree\":\"$QUERY\",\"k\":6}"
    echo '{"op":"join","tau":6}'
    echo '{"op":"distance","left":0,"right":1}'
    echo '{"op":"diff","left":0,"right":2}'
    echo '{"op":"diff","left":0,"right":1,"id":1}'
    echo '{"op":"diff","left":2,"right":4,"id":2}'
} | q > "$WORK/counted.out"
grep -q '"ok":false' "$WORK/counted.out" && fail "counted sequence errored: $(grep -m1 '"ok":false' "$WORK/counted.out")"
metrics=$(echo '{"op":"metrics","format":"json"}' | q)
echo "$metrics" | grep -q '"serve_scatter_fanout":{"count":4,"sum":12,"p50":3,"p95":3,"p99":3,"max":3}' \
    || fail "metrics: expected 4 striped queries over 3 shards: $metrics"
echo "$metrics" | grep -q '"serve_shard0_queries_total":7[,}]' || fail "metrics: shard0 count wrong: $metrics"
echo "$metrics" | grep -q '"serve_shard1_queries_total":7[,}]' || fail "metrics: shard1 count wrong: $metrics"
echo "$metrics" | grep -q '"serve_shard2_queries_total":6[,}]' || fail "metrics: shard2 count wrong: $metrics"
echo "$metrics" | grep -q '"index_range_queries_total":2[,}]' || fail "metrics: expected 2 range queries: $metrics"
echo "$metrics" | grep -q '"index_topk_queries_total":1[,}]' || fail "metrics: expected 1 topk query: $metrics"
echo "$metrics" | grep -q '"index_join_queries_total":1[,}]' || fail "metrics: expected 1 join query: $metrics"
echo "$metrics" | grep -q '"serve_latency_join_ns":{"count":1,' || fail "metrics: expected 1 join request: $metrics"
echo "$metrics" | grep -q '"serve_latency_diff_ns":{"count":3,' || fail "metrics: expected 3 diff requests: $metrics"
echo "$metrics" | grep -q '"index_diff_calls_total":3' || fail "metrics: expected 3 extracted scripts: $metrics"
# The scrape client renders the same counters as a Prometheus exposition.
RTED_AUTH_TOKEN="$TOKEN" "$RTED" metrics --tcp "$ADDR" > "$WORK/metrics.prom"
for expect in 0:7 1:7 2:6; do
    grep -q "^serve_shard${expect%:*}_queries_total ${expect#*:}\$" "$WORK/metrics.prom" \
        || fail "exposition shard${expect%:*} count wrong: $(grep "shard${expect%:*}" "$WORK/metrics.prom")"
done
grep -q '^serve_scatter_fanout_count 4$' "$WORK/metrics.prom" || fail "exposition fanout count wrong: $(grep fanout "$WORK/metrics.prom")"

# --- 3b. Query plan over the wire ----------------------------------------
# `explain` answers what a hypothetical query would run (tau present =
# budgeted): the stage order and the verifier, nothing else. The kernel
# counters surface what verification ran for the traffic above; the
# candidate-generator counters are gone.
plan=$(echo '{"op":"explain","tau":6}' | q)
echo "$plan" | grep -q '^{"ok":true,"plan":{"stage_order":\[[^]]*\],"budgeted":true}}$' \
    || fail "explain did not answer a plan: $plan"
echo "$plan" | grep -q '"budgeted":true' || fail "a tau explain must plan a budgeted query: $plan"
echo "$plan" | grep -q '"stage_order":\["size"' || fail "plan must lead with the size stage: $plan"
echo '{"op":"explain"}' | q | grep -q '"budgeted":false' \
    || fail "a tau-less explain must plan an unbudgeted query"
metrics=$(echo '{"op":"metrics","format":"json"}' | q)
echo "$metrics" | grep -q '"serve_latency_explain_ns":{"count":2,' || fail "metrics: expected 2 explain requests: $metrics"
echo "$metrics" | grep -qE '"index_(plan_linear|plan_metric|metric_[a-z_]+)_total"' \
    && fail "metrics: candidate-generator counters are still exported: $metrics"
echo "$metrics" | grep -qE '"index_plan_(zs|bounded|rted)_pairs_total":[1-9]' \
    || fail "metrics: the planned verifier dispatched no pairs: $metrics"

# --- 4. Pipelined diffs answer the same scripts as one-at-a-time diffs ---
single1=$(echo '{"op":"diff","left":0,"right":1}' | q)
single2=$(echo '{"op":"diff","left":2,"right":4}' | q)
{
    echo '{"op":"diff","left":0,"right":1,"id":"p1"}'
    echo '{"op":"diff","left":0,"right":9999,"id":"dead"}'
    echo '{"op":"diff","left":2,"right":4,"id":"p2"}'
} | q > "$WORK/pipelined.out"
[[ "$(sed -n 1p "$WORK/pipelined.out")" == "{\"id\":\"p1\",${single1#'{'}" ]] \
    || fail "pipelined diff differs from a single diff: $(sed -n 1p "$WORK/pipelined.out")"
sed -n 2p "$WORK/pipelined.out" | grep -q '^{"id":"dead","ok":false,.*no live tree with id 9999' \
    || fail "a diff with a dead id must fail its own line: $(sed -n 2p "$WORK/pipelined.out")"
[[ "$(sed -n 3p "$WORK/pipelined.out")" == "{\"id\":\"p2\",${single2#'{'}" ]] \
    || fail "a dead id must not disturb the next diff: $(sed -n 3p "$WORK/pipelined.out")"
echo '{"op":"diff","pairs":[[0,1]]}' | q | grep -q '"ok":false,"error":"diff: unknown key \\"pairs\\""' \
    || fail "a batch of pairs must be refused as an unknown key"

# --- 4b. Budget-aware distance: exact wire bytes over TCP ---------------
# Same contract as through the library: a met budget answers the plain
# exact distance line, a blown budget a certified exceeds/lower_bound
# line — byte-for-byte, with client request ids echoed first. Pairs of at
# most 256 DP cells verify with an exact kernel, whose certified bound is
# the exact distance; larger pairs run the bounded kernel (two 17-node stars
# with disjoint labels: 289 cells; a 17-node star and a 20-node chain:
# 340 cells).
STAR1='{a{b}{c}{d}{e}{f}{g}{h}{i}{j}{k}{l}{m}{n}{o}{p}{q}}'
STAR2='{A{B}{C}{D}{E}{F}{G}{H}{I}{J}{K}{L}{M}{N}{O}{P}{Q}}'
CHAIN20="$(printf '{a%.0s' {1..20})$(printf '}%.0s' {1..20})"
{
    echo '{"op":"distance","left":"{a{b}{c}}","right":"{a{b}{x}}","at_most":5,"id":"b1"}'
    echo "{\"op\":\"distance\",\"left\":\"$STAR1\",\"right\":\"$STAR2\",\"at_most\":1,\"id\":\"b2\"}"
    echo "{\"op\":\"distance\",\"left\":\"$STAR1\",\"right\":\"$CHAIN20\",\"at_most\":1,\"id\":\"b3\"}"
    echo '{"op":"distance","left":"{a{b}{c}}","right":"{x{y}{z}}","at_most":3,"id":"b4"}'
    echo '{"op":"distance","left":"{a{b}{c}}","right":"{x{y}{z}}","at_most":1,"id":"b5"}'
} | q > "$WORK/bounded.out"
[[ "$(sed -n 1p "$WORK/bounded.out")" == '{"id":"b1","ok":true,"distance":1}' ]] \
    || fail "met budget must answer the exact distance: $(sed -n 1p "$WORK/bounded.out")"
[[ "$(sed -n 2p "$WORK/bounded.out")" == '{"id":"b2","ok":true,"exceeds":true,"lower_bound":1}' ]] \
    || fail "abandoned frontier must certify the budget as the bound: $(sed -n 2p "$WORK/bounded.out")"
[[ "$(sed -n 3p "$WORK/bounded.out")" == '{"id":"b3","ok":true,"exceeds":true,"lower_bound":3}' ]] \
    || fail "size pre-bound must be the certified bound: $(sed -n 3p "$WORK/bounded.out")"
[[ "$(sed -n 4p "$WORK/bounded.out")" == '{"id":"b4","ok":true,"distance":3}' ]] \
    || fail "budget exactly at the distance must stay exact: $(sed -n 4p "$WORK/bounded.out")"
[[ "$(sed -n 5p "$WORK/bounded.out")" == '{"id":"b5","ok":true,"exceeds":true,"lower_bound":3}' ]] \
    || fail "small pair must certify its exact distance: $(sed -n 5p "$WORK/bounded.out")"
# The command line answers through the same call, so it prints b5's bound.
cli_b5=$("$RTED" distance --at-most 1 '{a{b}{c}}' '{x{y}{z}}' 2>/dev/null)
[[ "$cli_b5" == "exceeds 3" ]] || fail "distance --at-most must print serve's bound: $cli_b5"

# --- 5. Concurrent TCP clients, all answered without error --------------
client_pids=()
for c in 1 2 3; do
    {
        for t in 4 7 10; do
            echo "{\"op\":\"range\",\"tree\":\"$QUERY\",\"tau\":$t}"
            echo "{\"op\":\"topk\",\"tree\":\"$QUERY\",\"k\":$((c + 2))}"
            echo "{\"op\":\"distance\",\"left\":$((c - 1)),\"right\":$((c + 10))}"
            echo "{\"op\":\"join\",\"tau\":$((c + 3))}"
        done
    } | q > "$WORK/client$c.out" &
    client_pids+=($!)
done
for pid in "${client_pids[@]}"; do
    wait "$pid" || fail "a concurrent client exited nonzero"
done
for c in 1 2 3; do
    [[ $(wc -l < "$WORK/client$c.out") -eq 12 ]] || fail "client $c: expected 12 responses"
    grep -q '"ok":false' "$WORK/client$c.out" && fail "client $c got an error: $(grep -m1 '"ok":false' "$WORK/client$c.out")"
    grep -q '"neighbors":\[{' "$WORK/client$c.out" || fail "client $c: no non-empty result (corpus too sparse?)"
done

# --- 6. Durable updates, references, then a crash MID-UPDATE ------------
{
    echo '{"op":"remove","ids":[3,17,5]}'
} | q > "$WORK/update.out"
grep -q '"removed":3' "$WORK/update.out" || fail "remove count wrong: $(cat "$WORK/update.out")"

# The fixed query set asked again after recovery must answer the same.
{
    for t in 5 9; do
        echo "{\"op\":\"range\",\"tree\":\"$QUERY\",\"tau\":$t}"
    done
    echo "{\"op\":\"topk\",\"tree\":\"$QUERY\",\"k\":6}"
    echo '{"op":"join","tau":5}'
    echo '{"op":"distance","left":0,"right":11}'
    echo "{\"op\":\"distance\",\"left\":0,\"right\":\"$QUERY\"}"
    echo '{"op":"diff","left":0,"right":11}'
    echo '{"op":"diff","left":1,"right":2}'
    echo "{\"op\":\"distance\",\"left\":\"$STAR1\",\"right\":\"$STAR2\",\"at_most\":1}"
} > "$WORK/queries.ndjson"
q < "$WORK/queries.ndjson" > "$WORK/ref.out"
grep -q '"ok":false' "$WORK/ref.out" && fail "reference query errored: $(cat "$WORK/ref.out")"
grep -q '"exceeds":true,"lower_bound":1' "$WORK/ref.out" || fail "bounded distance must certify the blown budget: $(tail -1 "$WORK/ref.out")"

# Kill -9 while a client is streaming inserts: a real crash mid-update.
FILLER=$("$RTED" generate random 10 --seed 777)
( while :; do echo "{\"op\":\"insert\",\"trees\":[\"$FILLER\"]}"; done | q > /dev/null 2>&1 ) &
FEEDER_PID=$!
sleep 0.4
{ kill -9 "$SERVER_PID" && wait "$SERVER_PID"; } 2>/dev/null || true
SERVER_PID=""
kill "$FEEDER_PID" 2>/dev/null || true
wait "$FEEDER_PID" 2>/dev/null || true
# And tear two shard files' tails so repair provably has bytes to drop.
head -c 61 "$WORK/corpus.idx.shard1" | tail -c 13 >> "$WORK/corpus.idx.shard1"
head -c 45 "$WORK/corpus.idx.shard2" | tail -c 9 >> "$WORK/corpus.idx.shard2"

# --- 7. Strict refuses; repair recovers; answers byte-identical ---------
if "$RTED" serve --index "$WORK/corpus.idx" --shards 3 --strict < /dev/null \
    2> "$WORK/strict.err"; then
    fail "strict serve accepted torn shard files"
fi
grep -qiE "truncat|checksum|corrupt" "$WORK/strict.err" || fail "unclear strict error: $(cat "$WORK/strict.err")"

start_server --workers 2 --compact-frac 0.05
grep -q "repaired" "$LOG" || fail "no repair report in: $(tail -3 "$LOG")"
grep -q "byte(s) of torn tail" "$LOG" || fail "unexpected repair report: $(grep repaired "$LOG")"

# Clear the crash-window inserts (some acked, some torn away — both are
# fine; what matters is the surviving prefix) to restore the reference
# corpus, then the answers must match the pre-crash bytes — strictly:
# the striped top-k replays the union index's deterministic batch
# schedule, so even the `verified` counters are interleaving-free.
status=$(echo '{"op":"status"}' | q)
bound=$(echo "$status" | sed 's/.*"id_bound"://; s/[,}].*//')
[[ "$bound" -ge 30 ]] || fail "recovered id bound regressed below the pre-crash corpus: $status"
if [[ "$bound" -gt 30 ]]; then
    ids=$(seq 30 $((bound - 1)) | paste -sd, -)
    echo "{\"op\":\"remove\",\"ids\":[$ids]}" | q > /dev/null
fi
echo '{"op":"status"}' | q | grep -q '"live":27' || fail "live set not restored after cleanup: $(echo '{"op":"status"}' | q)"
q < "$WORK/queries.ndjson" > "$WORK/post.out"
diff "$WORK/ref.out" "$WORK/post.out" || fail "recovered service answers differ from pre-crash references"

# --- 8. Background compaction clears every shard's backlog --------------
# Three consecutive ids stripe one tree onto every shard; removing them
# again guarantees each of the 3 shards carries a tombstone no matter
# which shards the crash-window inserts landed on. The maintenance
# thread must then settle all 3 files to single segments with zero
# recorded tombstones.
bound=$(echo '{"op":"status"}' | q | sed 's/.*"id_bound"://; s/[,}].*//')
echo "{\"op\":\"insert\",\"trees\":[\"$FILLER\",\"$FILLER\",\"$FILLER\"]}" | q > /dev/null
echo "{\"op\":\"remove\",\"ids\":[$bound,$((bound + 1)),$((bound + 2))]}" | q \
    | grep -q '"removed":3' || fail "tombstone seeding failed"
compacted=""
for _ in $(seq 1 100); do
    status=$(echo '{"op":"status"}' | q)
    if echo "$status" | grep -q '"compactions":[1-9]' \
        && echo "$status" | grep -q '"file_tombstones":0' \
        && echo "$status" | grep -q '"shard_tombstones":\[0,0,0\]' \
        && echo "$status" | grep -q '"segments":3'; then
        compacted=yes
        break
    fi
    sleep 0.1
done
[[ -n "$compacted" ]] || fail "background compaction never settled: $status"
stop_server

# The repaired shard files are clean again: strict offline tools agree.
for f in "$WORK/corpus.idx" "$WORK/corpus.idx.shard1" "$WORK/corpus.idx.shard2"; do
    "$RTED" index repair "$f" 2> "$WORK/repair.err"
    grep -q "already clean" "$WORK/repair.err" || fail "$f not clean after drill: $(cat "$WORK/repair.err")"
done

# --- 9. Another shard count is refused, files untouched -----------------
STRIPES=(corpus.idx corpus.idx.shard1 corpus.idx.shard2)
for f in "${STRIPES[@]}"; do cp "$WORK/$f" "$WORK/$f.before"; done
for n in 1 4; do
    if "$RTED" serve --index "$WORK/corpus.idx" --shards "$n" < /dev/null \
        2> "$WORK/layout.err"; then
        fail "a 3-shard layout was served with --shards $n"
    fi
    grep -q "3-shard layout and cannot be served with $n shard" "$WORK/layout.err" \
        || fail "unclear layout error for --shards $n: $(cat "$WORK/layout.err")"
    [[ ! -e "$WORK/corpus.idx.shard3" ]] || fail "--shards $n created a stripe file"
    for f in "${STRIPES[@]}"; do
        cmp -s "$WORK/$f" "$WORK/$f.before" || fail "--shards $n changed $f"
    done
done

echo "serve-roundtrip OK: 3-shard TCP service with auth, even striping, exact per-shard telemetry, explain + kernel counters, pipelined diffs == single diffs, concurrent clients served, kill -9 mid-update + torn tails repaired on restart (answers byte-identical), strict mode refuses damage, per-shard compaction reclaims, other shard counts refused"
