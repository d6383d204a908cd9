#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash simbench/run.sh --workload ds-fanin-2k --seed 1 --seconds 24 --trace 0
#
# Everything the build writes (Go caches, temp files, the binary) stays
# in .bench_build/ under the current directory.
set -euo pipefail

root=$(pwd)

# Commit and dirty flag, read before HOME changes below so git still sees
# the user's configuration (safe.directory among it). Untracked files
# count as dirty: an untracked source file is part of the build.
if git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	SIMBENCH_COMMIT=$(git -C "$root" rev-parse HEAD)
	if [ -z "$(git -C "$root" status --porcelain)" ]; then
		SIMBENCH_DIRTY=false
	else
		SIMBENCH_DIRTY=true
	fi
	export SIMBENCH_COMMIT SIMBENCH_DIRTY
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOENV=off
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/simbench" && go build -buildvcs=false -o "$build/simbench" .) >&2
exec "$build/simbench" "$@"
