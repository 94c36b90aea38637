#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it. Every argument is
# passed on to `bench`; see README.md in this directory.
#
#   benchmark/run.sh                     every workload, untraced
#   benchmark/run.sh --trace             ... plus the traced run of each
#   benchmark/run.sh --agree             everything twice, compared within the bounds
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                        one run; the last stdout line is the result object
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

cores="$(nproc)"
if [ "$cores" -lt 2 ]; then
    echo "benchmark/run.sh: $cores core available; the benchmark needs 2 (two server shards beside the load generator)" >&2
    exit 3
fi

# Share the repository's target/ unless the caller chose a directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$root/$CARGO_TARGET_DIR" ;;
esac

# Cargo's own output goes to stderr: stdout carries only the report.
if ! cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2; then
    echo "benchmark/run.sh: the release build failed (it needs the repository's crates/ beside benchmark/)" >&2
    exit 4
fi
for bin in bench bench-server; do
    if [ ! -x "$target/release/$bin" ]; then
        echo "benchmark/run.sh: $target/release/$bin is missing after the build" >&2
        exit 4
    fi
done

BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT

exec "$target/release/bench" "$@"
