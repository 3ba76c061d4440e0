#!/bin/sh
# The benchmark package's own gate, one CI step: formatting, lints, the
# harness unit tests, and a scaled-down run of every workload, both
# passes, with every output check (about 25 s).
#
# The package is a workspace of its own, so the root's `cargo` commands
# do not reach it; this script is what does.
set -eu
cd "$(dirname "$0")"
# Share the root workspace's build directory unless told otherwise.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-../target}"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- run --quick --traced >/dev/null
echo "benchmark: all checks passed"
