#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it:
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes (binary, Go build cache) stays under
# .bench_build at the checkout root, and the Go toolchain is kept offline.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" "$@"
