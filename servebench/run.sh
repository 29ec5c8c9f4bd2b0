#!/usr/bin/env bash
# Builds the release daemon and the benchmark, then runs one benchmark
# invocation from the repository root:
#
#   bash servebench/run.sh --workload ingest-firehose --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p bas-server --bin bas-serverd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

sha=unknown
if [ -d "$root/.git" ]; then
    sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

exec "$target/release/servebench" \
    --daemon "$target/release/bas-serverd" \
    --work-dir "$target/servebench" \
    --manifest "$root/BENCHMARK.json" \
    --git-sha "$sha" \
    "$@"
