#!/usr/bin/env bash
# Regenerates every measured artifact: experiment outputs (results/) and the
# workspace test log.
set -uo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace

mkdir -p results
./target/release/exp_all               > results/all_experiments.txt 2> results/all_experiments.log
./target/release/exp_table1            > results/table1.txt 2>&1
./target/release/exp_table2            > results/table2.txt 2>&1
./target/release/exp_table4            > results/table4.txt 2>&1
./target/release/exp_ablation_rejection > results/ablation_rejection.txt 2>&1
./target/release/exp_ablation_dp       > results/ablation_dp.txt 2>&1

cargo test --workspace --release 2>&1 | tee test_output.txt
