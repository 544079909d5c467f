#!/usr/bin/env bash
# The benchmark's one command. Builds the `sparker` release binary from the
# repo's sources and this package, then hands its arguments on:
#
#   benchmark/run.sh [--seed N] [--smoke] [--reps R] [--seconds S] [--out DIR]
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare a.json b.json
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Cargo's progress goes to stderr; stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin sparker
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

# With CARGO_TARGET_DIR set both builds land there (relative to the repo
# root, where we are); without it each package has its own target/.
export SPARKER_BIN="${CARGO_TARGET_DIR:-$root/target}/release/sparker"
exec "${CARGO_TARGET_DIR:-$here/target}/release/sparker-benchmark" "$@"
