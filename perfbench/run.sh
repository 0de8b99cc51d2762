#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments, from the checkout's root. Everything the build and the
# run write stays under the build directory: $CARGO_TARGET_DIR when set,
# else .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/perfbench"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go/cache" GOPATH="$build/go/path" GOMODCACHE="$build/go/path/pkg/mod"
export XDG_CONFIG_HOME="$build/go/config" XDG_CACHE_HOME="$build/go/xdg-cache"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd perfbench && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" --dir "$build/perfbench" "$@"
