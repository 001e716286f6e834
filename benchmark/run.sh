#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes stays inside the checkout: the Go build cache, the
# go command's own config and counter files, the binary and the temporary
# directories (the durable workload's data directory among them) live under
# benchmark/.build/, span files under benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: $root holds no go.mod: the benchmark is a package of the pnstm module and needs the repository around it" >&2
	exit 2
fi

build="$root/benchmark/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go build -o "$build/pnstm-benchmark" ./benchmark
exec "$build/pnstm-benchmark" "$@"
