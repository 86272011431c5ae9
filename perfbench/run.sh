#!/usr/bin/env bash
# Build the benchmark and the binaries it runs, then run it.
#
#   bash perfbench/run.sh --workload regen|study|functional \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR
# (default: target). The benchmark runs as a child of this shell, not
# via exec, so the builds' memory does not count toward peak_rss_mb.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path perfbench/Cargo.toml --target-dir "$target"
cargo build --release --quiet --target-dir "$target" \
    -p bench-harness --bin regenerate_all -p sycl-study --bin study
"$target/release/perfbench" "$@"
