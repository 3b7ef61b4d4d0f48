#!/usr/bin/env bash
# Builds smtd and the perfbench harness from the checkout in the current
# directory, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload cold_sweep --seed 1 --seconds 24 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout (Go build cache, binaries, temporary cache directories).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/smtd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/smtd and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false TMPDIR="$out/tmp"

go build -o "$out/bin/smtd" ./cmd/smtd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -smtd "$out/bin/smtd" -workdir "$out" "$@"
