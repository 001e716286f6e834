#!/usr/bin/env bash
# The repeat check: two interleaved sets of K runs (default 10) of every
# workload on this checkout, compared against the benchmark's own bounds.
# Prints a markdown report (committed as benchmark/REPEATABILITY.md) and
# exits non-zero when a row exceeds its bound.
#
#   bash benchmark/repeat.sh 10 | tee benchmark/REPEATABILITY.md
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -repeat "${1:-10}"
