#!/usr/bin/env bash
# Tier-1 verification gate: release build, full workspace test suite,
# formatting, lint-clean under -D warnings, and warning-free rustdoc. CI and pre-commit both
# run exactly this script; keep it dependency-free (cargo toolchain only).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> bench_milp smoke (solver equivalence, tiny instance)"
./target/release/bench_milp --smoke

echo "==> fault-injection smoke (seeded recovery run, deterministic)"
fault_args=(run --nodes 6 --slots 24 --mean 3 --seed 11 --faults crashes=2,outage=4,seed=7)
./target/release/pdftsp "${fault_args[@]}" > /tmp/pdftsp-faults-a.txt
./target/release/pdftsp "${fault_args[@]}" > /tmp/pdftsp-faults-b.txt
grep -q "replay           : OK" /tmp/pdftsp-faults-a.txt
cmp /tmp/pdftsp-faults-a.txt /tmp/pdftsp-faults-b.txt
rm -f /tmp/pdftsp-faults-a.txt /tmp/pdftsp-faults-b.txt

echo "==> bench_service smoke (sharded-service determinism, open-loop rates)"
./target/release/bench_service --smoke

echo "==> bench_spot smoke (spot-market comparison + revocation determinism)"
./target/release/bench_spot --smoke

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (no broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "verify: OK"
