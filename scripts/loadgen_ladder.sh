#!/usr/bin/env bash
# Regenerates the measurements pasted into README "Continuous batching &
# loadgen": a 5 s open-loop Poisson ladder (25/100/400/1000 QPS of eager
# avmnist batch-2 requests with distinct seeds) against `mmbench serve`
# with batching on (defaults) and off (-max-batch -1).
#
#   go build -o /tmp/mmbench ./cmd/mmbench && scripts/loadgen_ladder.sh
set -eu
BIN=${BIN:-/tmp/mmbench}
URL=http://127.0.0.1:18090

serve() {
  "$BIN" serve -addr 127.0.0.1:18090 "$@" 2>/dev/null &
  PID=$!
  for _ in $(seq 1 50); do
    curl -sf $URL/v1/stats >/dev/null && break
    sleep 0.1
  done
}

stop() {
  kill $PID
  wait $PID 2>/dev/null || true
}

# Each step gets its own -seed: per-request data seeds derive from it,
# and a repeated seed would be served from the result cache.
ladder() {
  for q in 25 100 400 1000; do
    echo "\$ mmbench loadgen -url $URL -qps $q -duration 5s -seed $q | head -4"
    "$BIN" loadgen -url $URL -qps $q -duration 5s -seed $q | head -4
  done
}

stat() {
  curl -s $URL/v1/stats | python3 -c '
import json, sys
s = json.load(sys.stdin)
b, m, r = s["batching"], s["models"], s["resilience"]
print("batching: coalesce_ratio=%.2f max_merged=%d | models: builds=%d hits=%d | shed_overload=%d"
      % (b["coalesce_ratio"], b["max_merged"], m["executions"], m["hits"], r["shed_overload"]))'
}

echo "# mmbench serve   (defaults: -max-batch 256 -batch-window 2ms)"
serve
ladder
stat
stop
echo "# mmbench serve -max-batch -1   (batching disabled)"
serve -max-batch -1
ladder
stat
stop
