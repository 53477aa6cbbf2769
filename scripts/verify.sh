#!/usr/bin/env bash
# Full verification gate: build, tests, benchmark package, formatting, lints.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test --workspace =="
cargo test -q --workspace

echo "== cargo bench --no-run =="
cargo bench --no-run --workspace

# The layered benchmark is a workspace of its own (own Cargo.lock), so
# nothing above compiles it: a signature change in a crate would otherwise
# first be noticed by the bench pipeline.
echo "== examples/benchmark: locked build + self-test =="
cargo build --release --offline --locked --manifest-path examples/benchmark/Cargo.toml
cargo run --release --offline --locked --quiet --manifest-path examples/benchmark/Cargo.toml -- --self-test

# Solver code builds its communicators from the plan (`Plan::cart_comms`,
# `Transport::subgroup`); the message-based `Transport::split` is for tests
# only. Each file is scanned up to its `#[cfg(test)]` module.
echo "== no Transport::split in crates/core/src outside tests =="
awk 'FNR == 1 { in_tests = 0 }
     /#\[cfg\(test\)\]/ { in_tests = 1 }
     !in_tests && /\.split\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
     END { exit found }' crates/core/src/*.rs || {
    echo "verify: solver code calls .split( (lines above)" >&2
    exit 1
}

# The solve engines index the flat slabs the schedule compiler laid out
# (`SupIndex`, `SlotLayout`); a keyed map back on their paths is a
# regression. `schedule.rs` is exempt: compile-time maps are fine.
echo "== no HashMap/HashSet in the solve engines outside tests =="
awk 'FNR == 1 { in_tests = 0 }
     /#\[cfg\(test\)\]/ { in_tests = 1 }
     !in_tests && /Hash(Map|Set)/ { print FILENAME ":" FNR ": " $0; found = 1 }
     END { exit found }' crates/core/src/{solve2d,levelexec,new3d,baseline3d,allreduce}.rs || {
    echo "verify: a solve engine uses a HashMap/HashSet (lines above)" >&2
    exit 1
}

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: all gates passed"
