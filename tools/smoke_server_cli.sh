#!/usr/bin/env bash
# Smoke test of the server CLIs: starts vaq_server on an ephemeral port,
# drives every vaq_client command against it (an out-of-range INSERT must
# be rejected and the COMPACT after it must keep the live count), checks
# that malformed operands and flags exit 2 without touching the data, and
# stops the server with SIGTERM (which must exit 0). A second server then
# checks that forced Voronoi finds every point of a thin-spiked star.
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

# Starts vaq_server with the given flags on an ephemeral port; sets
# server_pid and port.
start_server() {
  timeout 120 "$bin/vaq_server" "$@" --port 0 > "$out" &
  server_pid=$!
  port=
  for _ in $(seq 100); do
    port=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\)$/\1/p' "$out")
    [ -n "$port" ] && break
    sleep 0.1
  done
  [ -n "$port" ] || fail "server $* printed no port"
}
stop_server() {
  kill -TERM "$server_pid"
  local status=0
  wait "$server_pid" || status=$?
  server_pid=
  [ "$status" = 0 ] || fail "server exited $status on SIGTERM, want 0"
}

start_server --points 1000

client() { timeout 10 "$bin/vaq_client" --port "$port" "$@"; }
# Result count of an uncached query: results <wkt> [flags...].
results() {
  client query "$@" --no-cache | sed -n 's/^results: \([0-9]*\).*/\1/p'
}
# Live point count: an uncached query over a box around the whole plane.
live() { results "POLYGON ((-1 -1, 2 -1, 2 2, -1 2, -1 -1))"; }
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
expect_usage_error "$bin/vaq_client" --port "$port" query \
  "POLYGON ((0.2 0.2, 0.8 0.2, 0.8 0.8, 0.2 0.2))" --method grid-sweep
expect_usage_error "$bin/vaq_server" --points 10 --max-deadline-ms abc
[ "$(live)" = 1000 ] || fail "a rejected operand changed the live count"
client stats

stop_server

# A simple star of nine thin spikes holding 21 of the points that
# `--points 2000 --seed 2000` serves. The paper's segment rule finds none
# of them; the served Voronoi method must find all (full-precision
# vertices: rounding them hides the miss).
star="POLYGON ((0.68896177615586496 0.46135927480470768, 0.86811906778459647 0.46135927480470768, 0.86811906778459647 0.46650164168540414, 0.68896177615586496 0.46650164168540414, 0.6849778759673425 0.47744731749473079, 0.8222203236637784 0.59260740473867723, 0.81891487394840423 0.59654668631211394, 0.68167242625196833 0.48138659906816739, 0.67158483686072912 0.4872106715186737, 0.70269517406780124 0.66364616132331755, 0.6976309312948582 0.6645391239610452, 0.66652059408778608 0.48810363415640146, 0.65504941068105926 0.48608095502114024, 0.56547076486669356 0.64123572084483882, 0.56101734451243057 0.6386645374044907, 0.65059599032679627 0.483509771580792, 0.64310870710859191 0.47458677490672657, 0.474755922205084 0.53586217746742393, 0.47299712914751502 0.53102993325625958, 0.64134991405102304 0.46975453069556222, 0.64134991405102304 0.4581063857945496, 0.47299712914751502 0.39683098323385224, 0.474755922205084 0.39199873902268789, 0.64310870710859191 0.45327414158338525, 0.65059599032679638 0.44435114490931982, 0.56101734451243057 0.28919637908562129, 0.56547076486669334 0.28662519564527306, 0.65504941068105915 0.44177996146897158, 0.66652059408778608 0.43975728233371036, 0.69763093129485809 0.26332179252906646, 0.70269517406780113 0.26421475516679421, 0.67158483686072912 0.44065024497143812, 0.68167242625196833 0.44647431742194443, 0.81891487394840423 0.33131423017799788, 0.8222203236637784 0.33525351175143447, 0.6849778759673425 0.45041359899538103, 0.68896177615586496 0.46135927480470768))"
start_server --points 2000 --seed 2000
for method in voronoi brute; do
  n=$(results "$star" --method "$method")
  [ "$n" = 21 ] || fail "--method $method on the spike star: '$n' ids, want 21"
done
stop_server
echo "server CLI smoke: OK"
