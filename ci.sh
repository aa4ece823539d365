#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 verify from ROADMAP.md.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> tier-1 verify: cargo build --release"
cargo build --release

echo "==> benchmark build: perfbench/ must compile against the current crate APIs"
cargo build --release --locked --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> tier-1 verify: cargo test -q"
cargo test -q

echo "==> workspace tests: every crate's unit and integration suites (crates/*/tests)"
cargo test --workspace -q

echo "==> chaos soak: fault-injected session must match the fault-free baseline"
cargo test --release -q --test chaos_session

echo "==> chaos determinism: same seed twice must inject the same fault schedule"
cargo test --release -q --test chaos_session fault_schedule_is_deterministic

echo "==> cached-rerun determinism: warm pass must be bit-identical, wire-free and fee-free"
cargo test --release -q --test cached_rerun

echo "==> shard matrix: differential suite must be bit-identical at 1, 2 and 8 shards"
VCAD_SHARDS=1,2,8 cargo test --release -q --test shard_differential

echo "==> shard properties: fixed-seed random designs/partitions (rerun one with VCAD_PROP_SEED=<seed>)"
cargo test --release -q --test shard_property

echo "==> engine differential: compiled levelized engine must match the scalar evaluator bit for bit"
cargo test --release -q -p vcad-engine --test differential

echo "==> engine matrix: coverage, tables and fees invariant across engine × source × shard count"
cargo test --release -q -p vcad-faults --test engine_differential

echo "==> golden drift gate: canonical bench outputs must match tests/golden/ (update: VCAD_UPDATE_GOLDEN=1)"
cargo test --release -q --test golden_outputs

echo "==> lint gate: clean two-provider design must pass elaboration"
cargo run --release -q -p vcad-lint --bin lintgate -- clean

echo "==> lint gate: seeded defect fixtures must each trip their rule"
cargo run --release -q -p vcad-lint --bin lintgate -- dirty

echo "==> trace gate: chaos-seeded two-provider session must stitch with zero orphan spans"
cargo run --release -q -p vcad-bench --bin tracesession -- --out target/tracesession
cargo run --release -q -p vcad-obs --bin obs-report -- report \
    target/tracesession/client.json \
    target/tracesession/provider-a.json \
    target/tracesession/provider-b.json \
    --require-no-orphans > target/tracesession/report.txt
grep "^consistency:" target/tracesession/report.txt

echo "==> obs overhead gate: traced run must stay within budget of baseline (BENCH_obs.json)"
cargo run --release -q -p vcad-bench --bin obsbench -- --json BENCH_obs.json

echo "==> campaign gate: heavy-chaos sweep, killed mid-run, must resume with zero lost cells"
rm -rf target/campaign-gate
# Reference: one uninterrupted run.
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_ci.json \
    --checkpoint target/campaign-gate/clean.journal \
    --json target/campaign-gate/clean-report.json > /dev/null
# Victim: stop after 5 cells (exit 10 = interrupted, by design) ...
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_ci.json \
    --checkpoint target/campaign-gate/staged.journal \
    --max-cells 5 > /dev/null && { echo "expected interrupted exit"; exit 1; } || [ $? -eq 10 ]
# ... tear the journal tail as a kill mid-append would ...
python3 - <<'EOF'
import os
p = "target/campaign-gate/staged.journal"
os.truncate(p, os.path.getsize(p) - 3)
EOF
# ... and resume to completion: the report must be byte-identical.
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_ci.json \
    --checkpoint target/campaign-gate/staged.journal \
    --json target/campaign-gate/staged-report.json \
    --bench BENCH_faultsim.json > /dev/null
cmp target/campaign-gate/clean-report.json target/campaign-gate/staged-report.json
echo "    resumed report is byte-identical; baseline in BENCH_faultsim.json"

echo "==> engine bench gate: compiled PPSFP must hold a ≥4× margin over the serial event-driven baseline"
cargo run --release -q -p vcad-bench --bin faultscale -- --bench BENCH_faultsim.json

echo "==> testability gate: lintgate reports must match the committed golden file"
mkdir -p target/testability-gate
cargo run --release -q -p vcad-lint --bin lintgate -- testability > target/testability-gate/report.txt
cmp target/testability-gate/report.txt tests/golden/testability_report.golden

echo "==> testability gate: campaign --lint must print per-provider reports without running"
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_testability.json --lint \
    | grep -q "untestable" || { echo "campaign --lint produced no testability findings"; exit 1; }

echo "==> testability gate: pruned campaign must reproduce unpruned coverage on detectable faults"
rm -f target/testability-gate/*.journal target/testability-gate/*.json
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_testability_off.json \
    --checkpoint target/testability-gate/off.journal \
    --json target/testability-gate/off.json > /dev/null
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_testability.json \
    --checkpoint target/testability-gate/pruned.journal \
    --json target/testability-gate/pruned.json > /dev/null
python3 - <<'EOF'
import json
off = json.load(open("target/testability-gate/off.json"))["rows"]
pruned = json.load(open("target/testability-gate/pruned.json"))["rows"]
assert len(off) == len(pruned), (len(off), len(pruned))
for a, b in zip(off, pruned):
    assert a["outcome"] == b["outcome"] == "completed", (a, b)
    assert a["detected"] == b["detected"], (a, b)
    assert b["total_faults"] < a["total_faults"], (a, b)
print(f"    {len(off)} cells: detected sets identical, pruned universes strictly smaller")
EOF

echo "==> testability bench gate: pruning must keep coverage bit-identical with a wall-clock win"
cargo run --release -q -p vcad-bench --bin testability -- --bench BENCH_faultsim.json

echo "==> loadgen gate: 200 concurrent tenant sessions — zero lost, fees exact, shed within budget"
rm -rf target/loadgen-gate
cargo run --release -q -p vcad-bench --bin loadgen -- \
    --out target/loadgen-gate \
    --bench BENCH_loadgen.json
cargo run --release -q -p vcad-obs --bin obs-report -- report \
    target/loadgen-gate/client.json \
    target/loadgen-gate/provider.json \
    --require-no-orphans > target/loadgen-gate/report.txt
grep "^consistency:" target/loadgen-gate/report.txt

echo "CI green."
