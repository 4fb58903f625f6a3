#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. See README.md.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run, result line last
#   benchmark/run.sh [--seed N] [--seconds S]                           all workloads, both modes -> out/results.json
#   benchmark/run.sh --compare a.json b.json                            two result sets against the bounds
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR resolves against the caller's directory for
# cargo and for the path below alike.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/optpar-benchmark" --out "$here/out" "$@"
