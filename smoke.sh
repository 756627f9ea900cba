#!/bin/sh
# Every smoke run of the repository, written once: the parallel measurement
# path, the perf cross-checks, chaind over stdio and netd, chainstore,
# reports, dual TLS encodings, the chainstore at scale, derfuzz, the bench
# JSON snapshots and the generated EXPERIMENTS.md. Runs against already
# built executables, so it never calls dune:
#
#   sh smoke.sh CHAOSCHECK BENCH
#
# CHAOSCHECK is bin/chaoscheck.exe and BENCH is bench/main.exe, as built
# (e.g. _build/default/bin/chaoscheck.exe). ci.sh runs it after the build
# and the test suite; `dune build @ci` runs it too (see bin/dune).
set -eux

abs() { case "$1" in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
chaoscheck=$(abs "$1")
bench=$(abs "$2")
cd "$(dirname "$0")"

# Parallel measurement path: every table and figure of the bench harness at
# the seed scale (no micro-benchmarks).
"$bench" --scale 0.002 --no-micro --jobs 2

# Perf smoke: cross-check the hand-optimised fast paths (SHA-256, slice DER
# decode, intern cache, base64) against the reference paths; exits non-zero
# on any digest or decode mismatch.
"$bench" --smoke

# chaind smoke: two identical scenario checks + a stats probe through the
# framed stdin/stdout protocol; assert the verdict and the cache-hit counters.
out=$("$chaoscheck" serve --scale 0.002 --jobs 2 < bin/ci_serve_requests.ndjson)
echo "$out" | grep -q '"compliant":false'
echo "$out" | grep -q '"ordered":false'
echo "$out" | grep -q '"hits":1'
echo "$out" | grep -q '"misses":1'
echo "$out" | grep -q '"rejects":0'

# chainstore smoke: scan to a store, replay from it byte-identically (at a
# different parallelism), audit clean, then chop the observation segment
# mid-frame and check audit repairs the crash artifact.
store=$(mktemp -d)
rstore=$(mktemp -d)
trap 'rm -rf "$store" "$rstore"' EXIT
"$chaoscheck" scan --scale 0.002 --jobs 2 --store "$store" > "$store/scan.out"
"$chaoscheck" replay --store "$store" --jobs 3 > "$store/replay.out"
cmp "$store/scan.out" "$store/replay.out"
"$chaoscheck" audit --store "$store" | grep -q '^audit ok'
obs="$store/obs.seg"
size=$(wc -c < "$obs")
dd if=/dev/null of="$obs" bs=1 seek=$((size - 5)) 2>/dev/null
"$chaoscheck" audit --store "$store" --dry-run | grep -q 'truncated tail'
"$chaoscheck" audit --store "$store" | grep -q '^store repaired'
"$chaoscheck" audit --store "$store" | grep -q '^audit ok'
"$chaoscheck" replay --store "$store" > /dev/null

# warm-store smoke: a warmed chaind must serve byte-identical check replies,
# with the warm fill showing up as cache hits.
"$chaoscheck" serve --scale 0.002 --jobs 2 \
  --warm-store "$store" < bin/ci_serve_requests.ndjson > "$store/warm.out"
head -2 "$store/warm.out" > "$store/warm2.out"
printf '%s\n' "$out" | head -2 | cmp - "$store/warm2.out"
grep -q '"hits":2' "$store/warm.out"
grep -q '"warmed":' "$store/warm.out"

# dual-encoding smoke: the same chain delivered as a raw TLS Certificate
# message under BOTH wire framings must produce byte-identical verdict
# replies (one miss, one shared-cache hit), and `chaoscheck classify` must
# report full 1.2/1.3 decode agreement over the corpus.
"$chaoscheck" scenario reversed 2>/dev/null > "$store/chain.pem"
b12=$("$chaoscheck" certmsg "$store/chain.pem" --tls-format 1.2)
b13=$("$chaoscheck" certmsg "$store/chain.pem" --tls-format 1.3)
{
  printf '{"op":"check","certmsg":"%s","domain":"dual.example","format":"1.2"}\n' "$b12"
  printf '{"op":"check","certmsg":"%s","domain":"dual.example"}\n' "$b13"
  printf '{"op":"stats"}\n'
} > "$store/dual.ndjson"
"$chaoscheck" serve --scale 0.002 --jobs 2 \
  < "$store/dual.ndjson" > "$store/dual.out"
sed -n 1p "$store/dual.out" > "$store/dual1.out"
sed -n 2p "$store/dual.out" | cmp - "$store/dual1.out"
sed -n 3p "$store/dual.out" | grep -q '"hits":1'
sed -n 3p "$store/dual.out" | grep -q '"misses":1'
"$chaoscheck" classify --store "$store" > "$store/classify.out"
grep -q 'TLS 1.2/1.3 decode agreement' "$store/classify.out"
grep -q '(100.0%)' "$store/classify.out"

# report smoke: --format json must be byte-identical across parallelism and
# across scan vs replay; jq can parse it; --check-paper is green on the seed
# population and red (naming the deviating cell) under --inject-deviation;
# `chaoscheck diff` agrees a corpus with itself and flags a divergent one.
"$chaoscheck" scan --scale 0.002 --jobs 1 --format json \
  --store "$rstore" > "$rstore/scan.json"
"$chaoscheck" replay --store "$rstore" --jobs 3 --format json \
  > "$rstore/replay.json"
cmp "$rstore/scan.json" "$rstore/replay.json"
"$chaoscheck" replay --store "$rstore" --jobs 2 --format json \
  > "$rstore/replay2.json"
cmp "$rstore/scan.json" "$rstore/replay2.json"
"$chaoscheck" scan --scale 0.002 --jobs 3 --format json > "$rstore/scan3.json"
cmp "$rstore/scan.json" "$rstore/scan3.json"
jq -e '.[0].id == "dataset"' "$rstore/scan.json" > /dev/null
jq -e '[.[].blocks[] | select(.kind == "table")] | length == 3' \
  "$rstore/scan.json" > /dev/null
"$chaoscheck" scan --scale 0.002 --jobs 2 --check-paper > /dev/null
if "$chaoscheck" scan --scale 0.002 --jobs 2 --check-paper \
    --inject-deviation > /dev/null 2> "$rstore/inject.err"; then
  echo "inject-deviation unexpectedly passed --check-paper" >&2
  exit 1
fi
grep -q 'check-paper: dataset/TLS 1.2 vs 1.3 identical chains' "$rstore/inject.err"
"$chaoscheck" diff "$rstore" "$rstore" | grep -q 'corpora agree'
# $store lost one observation to the audit-repair test above, so the two
# corpora must diff (non-zero exit, dataset cells named).
if "$chaoscheck" diff "$rstore" "$store" > "$rstore/diff.out"; then
  echo "diff of divergent corpora unexpectedly reported agreement" >&2
  exit 1
fi
grep -q '^dataset/' "$rstore/diff.out"
# Every --jobs option rejects a pool of zero Domains at parse time.
if "$chaoscheck" scan --scale 0.002 --jobs 0 > /dev/null 2>&1; then
  echo "scan --jobs 0 unexpectedly succeeded" >&2
  exit 1
fi

# parallel-scan race smoke: the measurement pool's Domains share the
# signature memo and the intern table. Three --jobs 4 scans must each finish
# inside 60 s and print the --jobs 1 table above byte-for-byte, so a hang or
# a divergent table fails here.
for run in 1 2 3; do
  timeout 60 "$chaoscheck" scan --scale 0.002 --jobs 4 \
    --format json > "$rstore/race$run.json"
  cmp "$rstore/scan.json" "$rstore/race$run.json"
done

# netd smoke: chaind on a loopback Unix socket via `serve --listen`, loaded
# by 8 concurrent loadgen connections; replies must be byte-identical to the
# serial stdio path, SIGTERM must drain gracefully (exit 0 with every reply
# delivered), and loadgen's report must be valid report-IR JSON carrying the
# tail quantiles.
nd=$(mktemp -d)
trap 'rm -rf "$store" "$rstore" "$nd"' EXIT
{
  printf '{"op":"check","scenario":"reversed"}\n'
  printf '{"op":"check","scenario":"incomplete"}\n'
} > "$nd/frames.ndjson"
"$chaoscheck" serve --scale 0.002 --jobs 2 \
  --listen "unix:$nd/chaind.sock" 2> "$nd/serve.err" &
srv=$!
i=0
while [ $i -lt 100 ]; do
  [ -S "$nd/chaind.sock" ] && break
  sleep 0.1
  i=$((i + 1))
done
[ -S "$nd/chaind.sock" ]
"$chaoscheck" loadgen --connect "unix:$nd/chaind.sock" \
  --frames "$nd/frames.ndjson" --rate 400 --requests 64 --conns 8 \
  --replies "$nd/replies.out" --out "$nd/bench.json" > "$nd/loadgen.out"
kill -TERM "$srv"
wait "$srv"
[ "$(wc -l < "$nd/replies.out")" -eq 64 ]
grep -q 'netd: 8 connections accepted, 64 frames' "$nd/serve.err"
i=0
while [ $i -lt 64 ]; do
  sed -n "$(((i % 2) + 1))p" "$nd/frames.ndjson"
  i=$((i + 1))
done > "$nd/serial.in"
"$chaoscheck" serve --scale 0.002 --jobs 2 --queue 128 \
  < "$nd/serial.in" > "$nd/serial.out"
cmp "$nd/serial.out" "$nd/replies.out"
jq -e '.id == "loadgen"' "$nd/bench.json" > /dev/null
jq -e '[.blocks[0].rows[]?.cells[]?.text?]
       | contains(["latency p50 (ms)", "latency p99 (ms)",
                   "latency p999 (ms)"])' "$nd/bench.json" > /dev/null

# sharded netd smoke: the same service split across 2 shard event loops,
# loaded by 256 ramped connections (32x the single-loop smoke above). Every
# reply must be delivered through the SIGTERM drain with 0 dropped, 0 connect
# errors and 0 accept failures, and the reply stream must be byte-identical
# to a --shards 1 run and to the serial stdio path. The select run always
# executes; the epoll run repeats it whenever `chaoscheck pollers` says the
# platform has the backend.
"$chaoscheck" pollers > "$nd/pollers.out"
grep -qx select "$nd/pollers.out"
run_sharded() {
  # $1 = poller backend, $2 = shard count, $3 = output tag
  "$chaoscheck" serve --scale 0.002 --jobs 2 --queue 256 \
    --poller "$1" --shards "$2" --listen "unix:$nd/$3.sock" \
    2> "$nd/$3.err" &
  srv=$!
  i=0
  while [ $i -lt 100 ]; do
    [ -S "$nd/$3.sock" ] && break
    sleep 0.1
    i=$((i + 1))
  done
  [ -S "$nd/$3.sock" ]
  # ramp 0.1s < conns/rate, so every connection dials while requests are
  # still being scheduled and request i lands on connection (i mod 256):
  # all 256 connections carry traffic
  "$chaoscheck" loadgen --connect "unix:$nd/$3.sock" \
    --frames "$nd/frames.ndjson" --poller "$1" --ramp 0.1 \
    --rate 2000 --requests 512 --conns 256 \
    --replies "$nd/$3.replies" --out "$nd/$3.json" > "$nd/$3.loadgen"
  kill -TERM "$srv"
  wait "$srv"
  [ "$(wc -l < "$nd/$3.replies")" -eq 512 ]
  grep -q 'netd: 256 connections accepted, 512 frames' "$nd/$3.err"
  grep -q ', 0 accept failures' "$nd/$3.err"
  jq -e '[.blocks[0].rows[] | select(.cells[0].text == "dropped")
          | .cells[1].n] == [0]' "$nd/$3.json" > /dev/null
  jq -e '[.blocks[0].rows[] | select(.cells[0].text == "connect errors")
          | .cells[1].n] == [0]' "$nd/$3.json" > /dev/null
}
run_sharded select 2 shard2
run_sharded select 1 shard1
i=0
while [ $i -lt 512 ]; do
  sed -n "$(((i % 2) + 1))p" "$nd/frames.ndjson"
  i=$((i + 1))
done > "$nd/serial512.in"
"$chaoscheck" serve --scale 0.002 --jobs 2 --queue 512 \
  < "$nd/serial512.in" > "$nd/serial512.out"
cmp "$nd/serial512.out" "$nd/shard2.replies"
cmp "$nd/serial512.out" "$nd/shard1.replies"
if grep -qx epoll "$nd/pollers.out"; then
  run_sharded epoll 2 epoll2
  cmp "$nd/serial512.out" "$nd/epoll2.replies"
fi
# TCP shards take the SO_REUSEPORT listener-per-shard path (Unix sockets
# above take the round-robin dispatcher); same byte-identity contract.
port=$((20000 + $$ % 10000))
"$chaoscheck" serve --scale 0.002 --jobs 2 --queue 256 \
  --poller select --shards 2 --listen "tcp:127.0.0.1:$port" \
  2> "$nd/tcp.err" &
srv=$!
i=0
while [ $i -lt 100 ]; do
  grep -q 'chaind: listening' "$nd/tcp.err" && break
  sleep 0.1
  i=$((i + 1))
done
grep -q 'chaind: listening' "$nd/tcp.err"
sleep 0.3
"$chaoscheck" loadgen --connect "tcp:127.0.0.1:$port" \
  --frames "$nd/frames.ndjson" --rate 400 --requests 64 --conns 8 \
  --replies "$nd/tcp.replies" > /dev/null
kill -TERM "$srv"
wait "$srv"
grep -q 'netd: 8 connections accepted, 64 frames' "$nd/tcp.err"
head -64 "$nd/serial512.out" | cmp - "$nd/tcp.replies"

# chainstore-at-scale smoke: a synthetic 100k-record store must audit
# repair-free in bounded wall time with the Domain pool, serve random
# access byte-identical to the sequential reference walk, prove inclusion
# against the authenticated ROOT, and survive losing a derived sidecar
# (audit rebuilds it from the frames). Replay must be byte-identical with
# and without the offset indexes.
big=$(mktemp -d)
trap 'rm -rf "$store" "$rstore" "$nd" "$big"' EXIT
"$chaoscheck" mkstore --store "$big/s" --records 100000 --jobs 2 \
  | grep -q 'merkle root'
t0=$(date +%s)
"$chaoscheck" audit --store "$big/s" --jobs 2 > "$big/audit.out"
t1=$(date +%s)
grep -q '^audit ok' "$big/audit.out"
if grep -q '^store repaired' "$big/audit.out"; then
  echo "fresh synthetic store needed repairs" >&2
  exit 1
fi
# generous bound for a loaded 1-core runner; the target is seconds, not minutes
[ $((t1 - t0)) -le 60 ]
"$chaoscheck" get --store "$big/s" --seg obs 54321 > "$big/idx.rec"
"$chaoscheck" get --store "$big/s" --seg obs 54321 --seq > "$big/seq.rec"
cmp "$big/idx.rec" "$big/seq.rec"
"$chaoscheck" proof --store "$big/s" 99999 | grep -q '^proof ok'
"$chaoscheck" replay --store "$store" --jobs 2 > "$big/with.out"
"$chaoscheck" replay --store "$store" --jobs 2 --no-index > "$big/without.out"
cmp "$big/with.out" "$big/without.out"
rm "$big/s/obs.idx"
"$chaoscheck" audit --store "$big/s" --jobs 2 > "$big/audit2.out"
grep -q 'obs.idx: offset index rebuilt' "$big/audit2.out"
grep -q '^audit ok' "$big/audit2.out"
"$chaoscheck" proof --store "$big/s" 0 | grep -q '^proof ok'

# bench JSON: the micro section must carry the store workloads and the
# committed BENCH_PR8.json protocol snapshot must parse with the same shape.
"$bench" --micro-only --filter 'store/merkle-proof(1024)' \
  --json "$big/bench.json" > /dev/null
jq -e '.micro | length >= 1' "$big/bench.json" > /dev/null
jq -e '.micro[] | select(.name == "store/merkle-proof(1024)")' \
  "$big/bench.json" > /dev/null
jq -e '.store[] | select(.name == "store/merkle-proof(1024)")
       | .ns_per_run > 0' BENCH_PR8.json > /dev/null
jq -e '.scaling[] | select(.name == "store/merkle-proof(1048576)")
       | .ns_per_run > 0' BENCH_PR8.json > /dev/null
jq -e '.wall[] | select(.name == "store/audit(100k)")
       | .seconds > 0' BENCH_PR8.json > /dev/null

# derfuzz smoke: a fixed-seed differential campaign over the lab certificate
# corpus must pass the two-decoder agreement precondition on every unmutated
# certificate, classify every mutant with zero divergences (no split, no
# mismatch, no crash from either decoder), and produce byte-identical JSON
# reports at --jobs 1 and --jobs 3. The committed golden seed corpus must
# regenerate from the same seed.
"$chaoscheck" derfuzz --iters 400 --seed 2026 --jobs 1 \
  --format json --out "$big/derfuzz1.json" > /dev/null
"$chaoscheck" derfuzz --iters 400 --seed 2026 --jobs 3 \
  --format json --out "$big/derfuzz3.json" --seeds-out "$big/der_fuzz.seeds" \
  > /dev/null
cmp "$big/derfuzz1.json" "$big/derfuzz3.json"
cmp test/golden/der_fuzz.seeds "$big/der_fuzz.seeds"
jq -e '.id == "derfuzz"' "$big/derfuzz1.json" > /dev/null
jq -e '[.blocks[1].rows[]
        | select(.cells[0].text | test("split|mismatch|crash"))
        | .cells[1].n] | add == 0' "$big/derfuzz1.json" > /dev/null
jq -e '[.blocks[1].rows[] | .cells[1].n] | add == 400' \
  "$big/derfuzz1.json" > /dev/null
grep -q 'the two decoders agreed on every mutant' "$big/derfuzz1.json"

# bench JSON: the committed BENCH_PR9.json snapshot must carry the two-decoder
# and campaign workloads with positive timings.
jq -e '.der[] | select(.name == "der2/decode-certificate")
       | .ns_per_run > 0' BENCH_PR9.json > /dev/null
jq -e '.derfuzz[] | select(.name == "derfuzz/campaign(32)")
       | .ns_per_run > 0' BENCH_PR9.json > /dev/null

# bench JSON: the live micro section must carry both poll-wait workloads
# this platform offers, and the committed BENCH_PR10.json snapshot must
# carry both backends plus drop-free shard-scaling loadgen runs at >= 4x
# the single-loop netd smoke's 8 connections.
"$bench" --micro-only --filter 'net/*' \
  --json "$big/netbench.json" > /dev/null
jq -e '.micro[] | select(.name == "net/poll-wait(select,64fd)")
       | .ns_per_run > 0' "$big/netbench.json" > /dev/null
if grep -qx epoll "$nd/pollers.out"; then
  jq -e '.micro[] | select(.name == "net/poll-wait(epoll,64fd)")
         | .ns_per_run > 0' "$big/netbench.json" > /dev/null
fi
jq -e '.poller[] | select(.name == "net/poll-wait(select,64fd)")
       | .ns_per_run > 0' BENCH_PR10.json > /dev/null
jq -e '.poller[] | select(.name == "net/poll-wait(epoll,64fd)")
       | .ns_per_run > 0' BENCH_PR10.json > /dev/null
jq -e '[.loadgen[] | .dropped, .connect_errors] | add == 0' \
  BENCH_PR10.json > /dev/null
jq -e '[.loadgen[] | .connections] | min >= 32' BENCH_PR10.json > /dev/null
jq -e '[.loadgen[] | .shards] | (contains([1]) and contains([2]))' \
  BENCH_PR10.json > /dev/null

# EXPERIMENTS.md is generated (doc/EXPERIMENTS.head.md + Report.to_markdown);
# regenerate and fail if the committed copy is stale.
./gen_experiments.sh "$rstore/EXPERIMENTS.md" "$chaoscheck"
cmp EXPERIMENTS.md "$rstore/EXPERIMENTS.md"
