#!/usr/bin/env bash
# Builds the system under test (cmd/fleetd, cmd/edged) and the benchmark
# program from the checkout it is run in, then runs the benchmark with
# the given arguments. Every build product and cache stays under
# .bench_build/ in the checkout. See e2ebench/NOTES.md.
#
#   bash e2ebench/run.sh --workload sparse-movers --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/fleetd" ] || [ ! -d "$root/cmd/edged" ]; then
	echo "e2ebench: run from the repository root (needs go.mod, cmd/fleetd, cmd/edged)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# The go command's caches and its telemetry (under the user config dir)
# stay in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/" ./cmd/fleetd ./cmd/edged >&2
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out" "$@"
