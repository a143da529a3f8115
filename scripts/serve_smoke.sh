#!/usr/bin/env bash
# Serve smoke: boots a real gdsxd process and checks the service
# contract end to end — a well-formed POST runs to completion, the
# observability surfaces work against real sockets (every request is
# traced: a generated request ID and an inbound X-Request-ID are both
# followable to /debug/traces/{id}; /metrics renders parseable
# Prometheus exposition with the runtime's families), a runaway
# recursion ends in a structured error without killing the server, a
# burst beyond capacity sheds with structured 429s, and SIGTERM drains
# in-flight work and exits 0. CI runs this after the unit suites; it needs only
# curl and a free port.
set -euo pipefail

ADDR=127.0.0.1:${GDSXD_PORT:-8745}
BASE=http://$ADDR
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"; kill "$GDSXD_PID" 2>/dev/null || true' EXIT

# Small capacity so the burst below actually overflows the queue.
go build -o "$TMP/gdsxd" ./cmd/gdsxd
"$TMP/gdsxd" -addr "$ADDR" -max-concurrent 2 -queue 2 -rps -1 &
GDSXD_PID=$!

for _ in $(seq 1 50); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fsS "$BASE/healthz" >/dev/null
curl -fsS "$BASE/readyz" >/dev/null
echo "serve_smoke: gdsxd up on $ADDR (pid $GDSXD_PID)"

# MiniC kernels. quick finishes in tens of milliseconds. The slow ones
# take seconds on their FIRST request — the transform pipeline's
# dependence-profiling run executes the program — which is exactly what
# the burst and drain steps need: a never-before-seen slow source holds
# its request in flight for the whole single-flight build. The two slow
# kernels differ only in trip count so they occupy distinct cache keys.
QUICK_SRC='int main() { int i; long s = 0; long *a = (long*)malloc(256 * 8); parallel for (i = 0; i < 256; i++) { a[i] = (long)i * i; } for (i = 0; i < 256; i++) { s = s + a[i]; } print_long(s); return 0; }'
SLOW_SRC='int main() { int i; long *a = (long*)malloc(8 * 8); parallel for (i = 0; i < 8; i++) { long acc = 0; long j; for (j = 0; j < 150000; j++) { acc = acc + j; } a[i] = acc; } print_long(a[0]); return 0; }'
SLOW_SRC2='int main() { int i; long *a = (long*)malloc(8 * 8); parallel for (i = 0; i < 8; i++) { long acc = 0; long j; for (j = 0; j < 155000; j++) { acc = acc + j; } a[i] = acc; } print_long(a[0]); return 0; }'

post() { # post <src-var> <out-file> [extra json fields]; headers go to <out-file>.hdr
    curl -s -o "$2" -D "$2.hdr" -w '%{http_code}' -X POST "$BASE/run" \
        -H 'Content-Type: application/json' \
        -d "{\"source\": $(printf '%s' "$1" | sed 's/"/\\"/g; s/^/"/; s/$/"/')${3:+, $3}}"
}

# 1. A well-formed request returns 200 with output. It carries no
# X-Request-ID and is traced all the same: the generated ID comes back
# on the response header and names a retained trace holding the
# request's execute span.
code=$(post "$QUICK_SRC" "$TMP/ok.json")
if [ "$code" != 200 ]; then
    echo "serve_smoke: FAIL: want 200, got $code: $(cat "$TMP/ok.json")" >&2
    exit 1
fi
grep -q '"output"' "$TMP/ok.json"
grep -q 5559680 "$TMP/ok.json" # sum of i*i for i in [0,256) = 255*256*511/6
ID=$(tr -d '\r' <"$TMP/ok.json.hdr" | awk 'tolower($1) == "x-request-id:" {print $2}')
if [ -z "$ID" ]; then
    echo "serve_smoke: FAIL: response without an X-Request-ID header" >&2
    exit 1
fi
# Retention settles in a deferred step after the response; poll briefly.
for _ in $(seq 1 20); do
    curl -fsS "$BASE/debug/traces/$ID" >"$TMP/ok.trace" 2>/dev/null && break
    sleep 0.1
done
if ! grep -q '"execute"' "$TMP/ok.trace"; then
    echo "serve_smoke: FAIL: no retained trace with an execute span at /debug/traces/$ID" >&2
    exit 1
fi
echo "serve_smoke: single request OK, traced as $ID"

# 2. /metrics renders valid Prometheus text exposition: every
# non-comment line is `name{labels} value`, and the families the
# dashboards rely on are present with the traffic counted so far.
curl -fsS "$BASE/metrics" >"$TMP/metrics"
bad=$(grep -vE '^(#|$)' "$TMP/metrics" \
    | grep -cvE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$' || true)
if [ "$bad" != 0 ]; then
    echo "serve_smoke: FAIL: $bad malformed exposition lines in /metrics:" >&2
    grep -vE '^(#|$)' "$TMP/metrics" | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$' >&2 || true
    exit 1
fi
for fam in gdsx_serve_requests_total gdsx_serve_ok_total gdsx_serve_latency_us_bucket \
    gdsx_serve_shed_level gdsx_serve_cache_misses_total gdsx_serve_tenant_requests_total; do
    if ! grep -q "^$fam" "$TMP/metrics"; then
        echo "serve_smoke: FAIL: /metrics missing family $fam" >&2
        exit 1
    fi
done
grep -q '^gdsx_serve_requests_total [1-9]' "$TMP/metrics"
# Request 1's observer fed the runtime families.
if ! grep -qE '^gdsx_interp_regions_parallel_total [1-9]' "$TMP/metrics"; then
    echo "serve_smoke: FAIL: gdsx_interp_regions_parallel_total missing or zero after request 1" >&2
    exit 1
fi
echo "serve_smoke: /metrics exposition valid ($(grep -cvE '^(#|$)' "$TMP/metrics") series)"

# 3. An inbound X-Request-ID names the request's trace: the ID comes
# back on the response header and its Chrome trace is retrievable from
# /debug/traces/{id} with the request's execute span in it.
REQ_ID=smoke-trace-1
code=$(curl -s -o "$TMP/traced.json" -w '%{http_code}' -X POST "$BASE/run" \
    -H 'Content-Type: application/json' -H "X-Request-ID: $REQ_ID" \
    -d "{\"source\": $(printf '%s' "$QUICK_SRC" | sed 's/"/\\"/g; s/^/"/; s/$/"/')}")
if [ "$code" != 200 ]; then
    echo "serve_smoke: FAIL: traced request: status $code: $(cat "$TMP/traced.json")" >&2
    exit 1
fi
hdr=$(curl -s -o /dev/null -D - -X POST "$BASE/run" -H 'Content-Type: application/json' \
    -H "X-Request-ID: $REQ_ID-hdr" \
    -d "{\"source\": $(printf '%s' "$QUICK_SRC" | sed 's/"/\\"/g; s/^/"/; s/$/"/')}" \
    | tr -d '\r' | grep -i '^x-request-id:' | awk '{print $2}')
if [ "$hdr" != "$REQ_ID-hdr" ]; then
    echo "serve_smoke: FAIL: response X-Request-ID is '$hdr', want '$REQ_ID-hdr'" >&2
    exit 1
fi
# Retention settles in a deferred step after the response; poll briefly.
for _ in $(seq 1 20); do
    curl -fsS "$BASE/debug/traces/$REQ_ID" >"$TMP/trace.json" 2>/dev/null && break
    sleep 0.1
done
grep -q '"traceEvents"' "$TMP/trace.json"
grep -q '"execute"' "$TMP/trace.json"
grep -q "\"$REQ_ID\"" "$TMP/trace.json"
curl -fsS "$BASE/debug/traces" | grep -q "\"$REQ_ID\""
echo "serve_smoke: X-Request-ID followable to /debug/traces/$REQ_ID"

# 4. A runaway recursion through a function that reserves no
# simulated stack hits the interpreter's call-depth bound: the request
# gets a structured runtime error, and gdsxd stays up. Without the
# bound the Go stack overflows, a fatal error that kills the process.
# A dead server makes curl fail: report its status, 000, instead of
# letting set -e end the script silently.
code=$(post 'int g() { return g(); } int main() { return g(); }' "$TMP/runaway.json" || true)
if [ "$code" != 422 ] || ! grep -q '"runtime_error"' "$TMP/runaway.json" \
    || ! grep -q 'call depth' "$TMP/runaway.json"; then
    echo "serve_smoke: FAIL: runaway recursion: status $code: $(cat "$TMP/runaway.json" 2>/dev/null)" >&2
    exit 1
fi
if ! curl -fsS "$BASE/healthz" >/dev/null; then
    echo "serve_smoke: FAIL: gdsxd down after a runaway recursion" >&2
    exit 1
fi
echo "serve_smoke: runaway recursion -> 422 runtime_error, gdsxd still healthy"

# 5. A burst beyond capacity (2 running + 2 queued) sheds the excess
# with structured 429 queue_full responses; nothing crashes. Waits on
# the curl pids explicitly — a bare wait would block on gdsxd forever.
BURST_PIDS=()
for i in $(seq 1 16); do
    post "$SLOW_SRC" "$TMP/burst.$i" >"$TMP/burst.$i.code" &
    BURST_PIDS+=("$!")
done
wait "${BURST_PIDS[@]}"
shed=0 ok=0
for i in $(seq 1 16); do
    case $(cat "$TMP/burst.$i.code") in
    200) ok=$((ok + 1)) ;;
    429)
        shed=$((shed + 1))
        grep -q queue_full "$TMP/burst.$i"
        ;;
    *)
        echo "serve_smoke: FAIL: burst request $i: status $(cat "$TMP/burst.$i.code"): $(cat "$TMP/burst.$i")" >&2
        exit 1
        ;;
    esac
done
if [ "$ok" -eq 0 ] || [ "$shed" -eq 0 ]; then
    echo "serve_smoke: FAIL: burst of 16 gave ok=$ok shed=$shed; want both nonzero" >&2
    exit 1
fi
echo "serve_smoke: burst of 16 -> $ok served, $shed shed as 429 queue_full"

# 6. SIGTERM drains: an in-flight request completes, new work is
# refused, and the process exits 0.
post "$SLOW_SRC2" "$TMP/drain.json" >"$TMP/drain.code" &
CURL_PID=$!
sleep 0.5
kill -TERM "$GDSXD_PID"
wait "$CURL_PID"
if [ "$(cat "$TMP/drain.code")" != 200 ]; then
    echo "serve_smoke: FAIL: in-flight request during drain: status $(cat "$TMP/drain.code"): $(cat "$TMP/drain.json")" >&2
    exit 1
fi
if wait "$GDSXD_PID"; then
    echo "serve_smoke: SIGTERM drain completed, exit 0"
else
    echo "serve_smoke: FAIL: gdsxd exited nonzero after SIGTERM" >&2
    exit 1
fi
trap 'rm -rf "$TMP"' EXIT
echo "serve_smoke: PASS"
