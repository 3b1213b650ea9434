#!/usr/bin/env bash
# Smoke test of the server CLIs: starts vaq_server on an ephemeral port,
# drives every vaq_client command against it (an out-of-range INSERT must
# be rejected and the COMPACT after it must keep the live count), checks
# that malformed operands and flags exit 2 without touching the data, and
# stops the server with SIGTERM (which must exit 0).
#
# Usage: tools/smoke_server_cli.sh <build-dir>
set -euo pipefail

bin=${1:?usage: smoke_server_cli.sh <build-dir>}
out=$(mktemp)
server_pid=
cleanup() {
  if [ -n "$server_pid" ]; then kill "$server_pid" 2>/dev/null || true; fi
  rm -f "$out"
}
trap cleanup EXIT
fail() { echo "FAIL: $*" >&2; exit 1; }

timeout 120 "$bin/vaq_server" --points 1000 --port 0 > "$out" &
server_pid=$!
port=
for _ in $(seq 100); do
  port=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\)$/\1/p' "$out")
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || fail "server printed no port"

client() { timeout 10 "$bin/vaq_client" --port "$port" "$@"; }
# Live point count: an uncached query over a box around the whole plane.
live() {
  client query "POLYGON ((-1 -1, 2 -1, 2 2, -1 2, -1 -1))" --no-cache |
    sed -n 's/^results: \([0-9]*\).*/\1/p'
}
expect_usage_error() {
  local status=0
  timeout 10 "$@" > /dev/null 2>&1 || status=$?
  [ "$status" = 2 ] || fail "'$*' exited $status, want 2"
}

client ping
client query "POLYGON ((0.2 0.2, 0.8 0.2, 0.8 0.8, 0.2 0.8, 0.2 0.2))"
[ "$(live)" = 1000 ] || fail "initial live count"
client insert 0.5 1.5
[ "$(live)" = 1001 ] || fail "live count after insert"
client erase 0
[ "$(live)" = 1000 ] || fail "live count after erase"
# A finite point outside the coordinate range is rejected, so the next
# compaction rebuilds from in-range points only.
client insert 1e200 1e200 | grep -q '^rejected' ||
  fail "out-of-range insert was not rejected"
client compact
[ "$(live)" = 1000 ] || fail "live count after compact"

expect_usage_error "$bin/vaq_client" --port "$port" erase foo
expect_usage_error "$bin/vaq_client" --port "$port" erase 4294967296
expect_usage_error "$bin/vaq_client" --port "$port" insert abc 1
expect_usage_error "$bin/vaq_client" --port 65537 ping
expect_usage_error "$bin/vaq_server" --points 10 --max-deadline-ms abc
[ "$(live)" = 1000 ] || fail "a rejected operand changed the live count"
client stats

kill -TERM "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=
[ "$status" = 0 ] || fail "server exited $status on SIGTERM, want 0"
echo "server CLI smoke: OK"
