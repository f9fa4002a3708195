#!/usr/bin/env bash
# End-to-end smoke test of the network scan service over real HTTP:
# build sunder-serve, start it, upload a rule set, run a batched scan and
# a streaming scan, check the matches, and shut the server down gracefully
# (SIGTERM must exit cleanly). Requires curl; uses jq when available.
set -euo pipefail
cd "$(dirname "$0")/.."

addr="127.0.0.1:${SERVE_PORT:-8471}"
base="http://$addr"

go build -o /tmp/sunder-serve ./cmd/sunder-serve
/tmp/sunder-serve -addr "$addr" -pool 2 -trace-sample 1 &
srv_pid=$!
cleanup() { kill "$srv_pid" 2>/dev/null || true; }
trap cleanup EXIT

# Wait for the listener.
for _ in $(seq 1 50); do
  if curl -sf "$base/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -sf "$base/healthz" >/dev/null || { echo "serve_smoke: server never came up" >&2; exit 1; }

# Upload a rule set (one prunable rule, exercising the Minimize cache key and
# its prune rounds).
put=$(curl -sf -X PUT "$base/rulesets/smoke" -d '{
  "patterns": [
    {"expr": "GET /admin", "code": 100},
    {"expr": "(ab|a.)c", "code": 7}
  ],
  "options": {"minimize": true}
}')
echo "ruleset: $put"
grep -q '"pruned_states":[1-9]' <<<"$put" || {
  echo "serve_smoke: expected pruned_states > 0 in ruleset info" >&2; exit 1; }

# Batched raw scan: the input contains two "GET /admin" hits and one "abc".
scan=$(curl -sf -X POST "$base/rulesets/smoke/scan" \
  -H 'Content-Type: application/octet-stream' \
  --data-binary 'xx GET /admin yy abc zz GET /admin')
echo "scan: $scan"
if command -v jq >/dev/null; then
  n=$(jq '[.results[0].matches[].code] | length' <<<"$scan")
  [ "$n" -eq 3 ] || { echo "serve_smoke: want 3 matches, got $n" >&2; exit 1; }
else
  [ "$(grep -o '"code"' <<<"$scan" | wc -l)" -eq 3 ] || {
    echo "serve_smoke: want 3 matches in $scan" >&2; exit 1; }
fi

# Streaming scan: NDJSON lines, terminated by a done line with stats.
stream=$(curl -sf -X POST "$base/rulesets/smoke/stream" \
  -H 'Content-Type: application/octet-stream' \
  --data-binary 'pre GET /admin post abc tail')
echo "stream: $stream"
grep -q '"match"' <<<"$stream" || { echo "serve_smoke: stream had no matches" >&2; exit 1; }
grep -q '"done":true' <<<"$stream" || { echo "serve_smoke: stream had no done line" >&2; exit 1; }

# Metrics reflect the traffic, with the right Content-Type, the per-ruleset
# latency quantiles and the per-reason shed counters.
metrics_headers=$(curl -sfi "$base/metrics")
grep -qi '^content-type: text/plain; charset=utf-8' <<<"$metrics_headers" || {
  echo "serve_smoke: /metrics Content-Type is not text/plain" >&2; exit 1; }
metrics=$(curl -sf "$base/metrics")
grep -q '^server_scans_total [1-9]' <<<"$metrics" || {
  echo "serve_smoke: metrics missing scan count" >&2; exit 1; }
grep -q 'server_scan_latency_ns_p99{ruleset="smoke"}' <<<"$metrics" || {
  echo "serve_smoke: metrics missing per-ruleset latency quantiles" >&2; exit 1; }
grep -q 'server_shed_total{ruleset="smoke",reason="capacity"}' <<<"$metrics" || {
  echo "serve_smoke: metrics missing shed counters" >&2; exit 1; }

# JSON metrics view: application/json, with server-side SLO quantiles.
json_headers=$(curl -sfi "$base/metrics?format=json")
grep -qi '^content-type: application/json' <<<"$json_headers" || {
  echo "serve_smoke: /metrics?format=json Content-Type is not application/json" >&2; exit 1; }
mjson=$(curl -sf "$base/metrics?format=json")
if command -v jq >/dev/null; then
  p50=$(jq '.rulesets.smoke.latency.p50_ns' <<<"$mjson")
  [ "$p50" -gt 0 ] || { echo "serve_smoke: JSON metrics p50_ns not positive: $p50" >&2; exit 1; }
  jq -e '.rulesets.smoke.shed.capacity >= 0 and .compile_cache.misses >= 1' >/dev/null <<<"$mjson" || {
    echo "serve_smoke: JSON metrics shape wrong" >&2; exit 1; }
else
  grep -q '"p50_ns":[1-9]' <<<"$mjson" || {
    echo "serve_smoke: JSON metrics missing positive p50_ns" >&2; exit 1; }
fi

# Trace smoke: the merged Chrome trace is valid JSON holding the sampled
# request spans; ?format=spans yields one JSON object per line.
trace=$(curl -sf "$base/trace")
if command -v jq >/dev/null; then
  nspans=$(jq '[.traceEvents[] | select(.pid == 1)] | length' <<<"$trace")
  [ "$nspans" -gt 0 ] || { echo "serve_smoke: trace has no request spans" >&2; exit 1; }
else
  grep -q '"name":"scan"' <<<"$trace" || {
    echo "serve_smoke: trace missing scan span" >&2; exit 1; }
fi
spans=$(curl -sf "$base/trace?format=spans")
grep -q '"name":"pool_wait"' <<<"$spans" || {
  echo "serve_smoke: span JSONL missing pool_wait child" >&2; exit 1; }

# Graceful shutdown: SIGTERM, clean exit.
kill -TERM "$srv_pid"
wait "$srv_pid" || { echo "serve_smoke: server exited non-zero on SIGTERM" >&2; exit 1; }
trap - EXIT
echo "serve_smoke: OK"
