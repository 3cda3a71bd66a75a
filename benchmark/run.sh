#!/usr/bin/env bash
# Build (release) and run the benchmark. With no arguments: every workload,
# end-to-end metrics, default seed and length. Examples:
#   benchmark/run.sh run --workload plan_reuse --seed 7
#   benchmark/run.sh run --workload serve_mixed --trace
#   benchmark/run.sh repeat 10 --vary-seed
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then
    set -- run
fi
exec cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- "$@"
