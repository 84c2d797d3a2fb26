#!/usr/bin/env bash
# Tier-1 verification: the workspace must build, test green, and stay
# hermetic (zero non-path dependencies, so it works with no network and
# no registry). Run from the repo root:
#
#   scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The run must leave the working tree as it found it: nothing it builds,
# tests or measures may rewrite a tracked file or leave an untracked one
# that .gitignore does not name. Hash the tracked changes plus the
# untracked-file list now and compare at the end (skipped outside a git
# checkout).
tree_state() {
    { git diff HEAD --binary; git ls-files --others --exclude-standard; } | sha256sum
}
tree_before=""
if git rev-parse --verify -q HEAD > /dev/null 2>&1; then
    tree_before="$(tree_state)"
fi

echo "== guard: crates/*/Cargo.toml must declare only path dependencies =="
# Any dependency line with a version requirement or registry source is a
# violation; `workspace = true` entries resolve to the path-only
# [workspace.dependencies] table in the root manifest.
bad=0
for manifest in crates/*/Cargo.toml; do
    # Strip comments, then look for dependency-table lines that name a
    # version/git/registry source.
    if sed 's/#.*//' "$manifest" | grep -nE '^[a-zA-Z0-9_-]+[[:space:]]*=[[:space:]]*("[^"]+"|\{[^}]*(version|git|registry)[[:space:]]*=)' \
        | grep -vE '^[0-9]+:(name|version|edition|license|rust-version|description|path|workspace|harness|test|bench)[[:space:]]*='; then
        echo "non-path dependency in $manifest (lines above)"
        bad=1
    fi
done
if ! grep -q 'path = "crates/' Cargo.toml; then
    echo "root Cargo.toml lost its path-only [workspace.dependencies]"
    bad=1
fi
# Within [workspace.dependencies], every entry must be a path dependency.
if awk '/^\[workspace.dependencies\]/{t=1; next} /^\[/{t=0} t' Cargo.toml \
    | sed 's/#.*//' \
    | grep -nE '=[[:space:]]*("|\{[^}]*(version|git|registry)[[:space:]]*=)' \
    | grep -v 'path[[:space:]]*='; then
    echo "root [workspace.dependencies] declares a non-path dependency (lines above)"
    bad=1
fi
[ "$bad" -eq 0 ] || { echo "hermetic-build guard FAILED"; exit 1; }
echo "hermetic-build guard OK"

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test -q =="
cargo test -q --offline

echo "== benchmark build + self-test (perfbench, stencil-armed-1024) =="
# perfbench is its own cargo workspace on path dependencies to the crates
# above, so the workspace build does not compile it: build it here, so an
# API change that breaks the benchmark fails CI instead of the benchmark
# run. The self-test then checks one workload's metric names, units and
# run-to-run determinism.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
python3 perfbench/selftest.py stencil-armed-1024

echo "== differential fuzz smoke (release, 200 seeded programs) =="
cargo run --release --offline -q -p il-apps --bin ilaunch -- fuzz --cases 200 --seed 42

echo "== differential fuzz self-test (--inject must catch every case) =="
cargo run --release --offline -q -p il-apps --bin ilaunch -- fuzz --cases 8 --seed 42 --inject

echo "== chaos smoke (200 seeded programs, each re-run under a fault schedule) =="
# Every case re-executes under the survivable fault schedule derived
# from the --faults seed and its case seed: same task set, makespan no
# better than fault-free, byte-identical replay.
cargo run --release --offline -q -p il-apps --bin ilaunch -- fuzz --cases 200 --seed 42 --faults 0xFA17

echo "== corruption smoke (200 seeded programs, replicate-2 digest-vote defense) =="
# Every case re-executes under a seeded bit-flip schedule (task outputs
# + message payloads) with the replicate-2 defense armed: zero escapes,
# final store byte-equal to the fault-free run, byte-identical replay.
cargo run --release --offline -q -p il-apps --bin ilaunch -- fuzz --cases 200 --seed 42 --corrupt 0x5DC0

echo "== replay-equivalence tier (trace capture & replay) =="
# Trace replay is host-side memoization: these tiers assert replay-on
# vs replay-off runs are byte-identical (reports, stage attribution,
# final stores) over the oracle corpus, the golden apps, and randomized
# iterative programs with mid-run mutations, and that repeated launch
# sequences actually replay. The fuzz legs above also check on/off
# report equality per case, so the 200-case corpus carries it too.
cargo test --release --offline -q --test trace_replay
cargo test --release --offline -q -p il-runtime --test trace_props

echo "== chaos smoke (validated app run under faults) =="
# A faulted validate-mode run must still match the sequential reference
# (the binary asserts it) while the recovery protocol re-shards the
# crashed node's work.
cargo run --release --offline -q -p il-apps --bin ilaunch -- stencil --nodes 4 --validate --faults 7

echo "== figure CSV pin guard (regenerate, byte-compare against results/) =="
# The figure sweeps are deterministic DES output: regenerating them must
# reproduce the pinned CSVs byte-for-byte at any pool width. Tables 2–3
# are wall-clock and excluded.
csvtmp="$(mktemp -d)"
trap 'rm -rf "$csvtmp"' EXIT
cargo run --release --offline -q -p il-bench --bin figures -- \
    fig4 fig5 fig6 fig7 fig8 fig9 fig10 --out-dir "$csvtmp" > /dev/null
for f in fig4 fig5 fig6 fig7 fig8 fig9 fig10; do
    cmp "results/$f.csv" "$csvtmp/$f.csv" \
        || { echo "pinned results/$f.csv drifted from regenerated output"; exit 1; }
done
echo "pinned figure CSVs reproduce byte-identically"

echo "== machine-scale smoke (65k-node weak-scaling sweep) =="
# The raw-DES weak-scaling sweep: calendar queue + O(1) fault tables +
# O(active) clock arena vs. the legacy heap/scan baseline, at the CI
# smoke size. The sweep asserts both paths dispatch the same events;
# the full 1M-node sweep is `figures -- scale` with no cap.
cargo run --release --offline -q -p il-bench --bin figures -- \
    scale --scale-max-nodes 65536

echo "== service-mode smoke (3 policies x seeded 8-tenant mix) =="
# The multi-tenant service scheduler: the standard balanced mix and the
# skewed tail-latency mix under fifo, fair-share, and aged-priority on
# the shared simulated machine. Prints per-policy throughput and
# latency percentiles; conservation (finished + rejected == submitted)
# is asserted by the binary and the service_mode/sched_props test tiers
# in `cargo test` above.
cargo run --release --offline -q -p il-apps --bin ilaunch -- serve --policy all
cargo run --release --offline -q -p il-apps --bin ilaunch -- serve --policy all --skewed --mean-gap-us 900

echo "== AMR regrid invalidation smoke (release) =="
# The adaptive-mesh app refines/coarsens its block partition every
# epoch, forcing analysis-cache misses and trace invalidation +
# re-capture; the validated run must still match the sequential
# reference, and the faulted leg re-checks the same result under
# recovery. The run prints the trace-replay counters; regrids showing
# `invalidated >= 1` is locked by the trace_replay cadence test.
cargo run --release --offline -q -p il-apps --bin ilaunch -- amr --validate
cargo run --release --offline -q -p il-apps --bin ilaunch -- amr --validate --faults 7

echo "== sparse-graph oracle leg (release) =="
# PageRank's data-dependent opaque projection (σ over ghost sets of a
# seeded power-law graph) drives the dynamic bitmask-check path; the
# validated run cross-checks final ranks against the sequential
# reference, fault-free and under the survivable fault schedule.
cargo run --release --offline -q -p il-apps --bin ilaunch -- pagerank --validate
cargo run --release --offline -q -p il-apps --bin ilaunch -- pagerank --validate --faults 7

echo "== pagerank at 1e5 pieces (perfbench correctness gate) =="
# One benchmark run of the 10^5-piece pagerank workload; its exit status
# is perfbench's correctness gate. The size keeps the oracle's
# privilege-aware registration, the dynamized BVH, and the BVH-pruned
# disjointness check honest: any of the three regressing to quadratic
# turns this leg from seconds into minutes.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload pagerank-1e5 --seed 1 --seconds 1 --trace 0 > /dev/null

echo "== chaos leg at 65k simulated nodes (release) =="
# The full runtime stack — expansion, distribution, recovery — on a
# 65,536-node machine, fault-free and faulted. Release-only: the test
# is #[cfg(not(debug_assertions))]-gated.
cargo test --release --offline -q --test fault_injection chaos_leg_at_65k

echo "== guard: the run left the working tree as it found it =="
if [ -n "$tree_before" ] && [ "$(tree_state)" != "$tree_before" ]; then
    echo "verify.sh changed the working tree:"
    git status --porcelain
    exit 1
fi

echo "verify.sh: all green"
