# Development entry points. `just ci` mirrors the CI workflow gates
# exactly (the workflow jobs call these same recipes, so local and CI
# cannot drift) and is the pre-push command. `just verify` is the
# classic tier-1 gate.

# Build release, run the full test suite, lint, and compile benches.
verify: build-test lint bench-compile

# Everything CI runs, locally — the pre-push command.
ci: build-test lint fmt-check bench-compile figures-smoke lint-smartpick docs store-bench residency-bench bench-smoke

# CI job: release build + the full test suite.
build-test:
    cargo build --release
    cargo test -q

# CI job: clippy over every target, warnings denied.
lint:
    cargo clippy --all-targets -- -D warnings

# CI job: smartpick-lint, the in-repo static analyzer (concurrency and
# panic-safety invariants, dead `pub` surface; see README "Static
# analysis"). Refreshes lint-report.json so finding counts and the
# `surface` section are diffable across PRs.
lint-smartpick:
    cargo run --release -p lint --bin smartpick-lint -- --json lint-report.json

# CI job: rustdoc builds with warnings denied (broken intra-doc links,
# missing docs on public items) plus the doc-link check that paths and
# just recipes referenced by docs/*.md, README.md and ROADMAP.md
# actually exist; a `path:line` reference must also name a line the
# file has.
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
    cargo test -q -p smartpick --test doc_links

# CI job: repo-wide formatting gate.
fmt-check:
    cargo fmt --all -- --check

# Apply repo-wide formatting.
fmt:
    cargo fmt --all

# CI job: compile every criterion harness.
bench-compile:
    cargo bench --no-run

# CI job: the paper-reproduction binaries still build and run
# (fig1 + table1 as canaries, so the figure binaries cannot rot), and
# the recorded determine-latency budget still parses.
figures-smoke:
    cargo build --release -p smartpick_bench --bins
    ./target/release/fig1
    ./target/release/table1
    cargo test -q -p smartpick_bench --test bench_determine_json

# Fast feedback: debug build + tests.
check:
    cargo test -q

# Run every criterion harness (wall-clock measurements, shim harness).
bench:
    cargo bench

# Multi-threaded service throughput: snapshot reads vs a global lock,
# with and without retrains running. On a single-core box read the
# `reads_under_retrain` group; the scaling group needs real cores.
service-bench:
    cargo bench --bench service_throughput

# Wire serving-boundary cost: the `wire_rtt` group (ping vs in-process
# vs over-wire determine) plus `wire_pipelined` (N blocking round trips
# vs N requests in flight on one connection) and `scrape_under_load`
# (the telemetry surface's price, idle and while a background scraper
# hammers the registry).
wire-bench:
    cargo bench --bench wire_rtt

# Observability tour: scrape envelope, event log, health, and a
# supervised worker-crash recovery, narrated (see README
# "Observability").
scrape-demo:
    cargo run --release --example obs_demo

# determine() hot path: vectorized vs the pre-vectorization reference
# across grid sizes 8/16/32 and forest sizes 10/50/100.
bench-determine:
    cargo bench --bench determine_latency

# Regenerate BENCH_determine.json (median in-process determine()
# latency, both paths; guarded by
# crates/bench/tests/bench_determine_json.rs).
bench-determine-record:
    cargo build --release -p smartpick_bench --bin bench_determine
    ./target/release/bench_determine

# CI job: regenerate the durability record (per-tenant snapshot size at
# rest, recovery time vs WAL length, the open of a mostly idle fleet — a
# tenth of the recorded one — sustained feedback: reports/s, fsyncs and
# rewritten bytes per report, one batch retrain in process) into a
# scratch path to prove the harness still runs, then hold the
# *committed* BENCH_store.json to the guard bars in
# crates/bench/tests/bench_store_json.rs — the durability, recovery,
# feedback and retrain bars.
store-bench:
    cargo build --release -p smartpick_bench --bin bench_store
    ./target/release/bench_store target/tmp/BENCH_store.scratch.json --idle-fleet 1000
    cargo test -q -p smartpick_bench --test bench_store_json

# Regenerate the committed BENCH_store.json at the repo root (quoted by
# docs/PERSISTENCE.md).
bench-store-record:
    cargo build --release -p smartpick_bench --bin bench_store
    ./target/release/bench_store

# CI job: run the residency harness at a reduced scale into a scratch
# path to prove it still runs (bounded resident set, cold-hit path) and
# that this run's scrape, as a binary response, fits the default 1 MiB
# frame; then hold the *committed* full-scale BENCH_residency.json to
# the guard bars in crates/bench/tests/bench_residency_json.rs.
residency-bench:
    cargo build --release -p smartpick_bench --bin bench_residency
    ./target/release/bench_residency target/tmp/BENCH_residency.scratch.json --tenants 2000 --max-resident 100
    awk -F'[:,]' '/"scrape_binary_bytes"/ { seen = 1; fits = $2 + 0 <= 1048576 } END { exit !(seen && fits) }' target/tmp/BENCH_residency.scratch.json
    cargo test -q -p smartpick_bench --test bench_residency_json

# CI job: the end-to-end benchmark (`benchmark/`, a package of its own
# that no workspace build compiles) still builds against the crates'
# public API, passes its own tests, and answers every workload correctly
# in a shortened traced run.
bench-smoke:
    cargo test --manifest-path benchmark/Cargo.toml
    cargo run --release --manifest-path benchmark/Cargo.toml -- --quick --trace

# Regenerate the committed BENCH_residency.json at the repo root
# (100k registered tenants under a 1k-resident cap; quoted by
# docs/PERSISTENCE.md and guarded by the residency-bench CI job).
bench-residency-record:
    cargo build --release -p smartpick_bench --bin bench_residency
    ./target/release/bench_residency --tenants 100000 --max-resident 1000

# Regenerate BENCH_wire.json (over-wire round trips, multi-connection
# throughput, connection scaling; guarded by
# crates/bench/tests/bench_wire_json.rs).
# The 1024-connection scaling run needs a raised fd limit.
bench-wire-record:
    cargo build --release -p smartpick_bench --bin bench_wire
    sh -c 'ulimit -n 20000; ./target/release/bench_wire'

# Source lines per crate (`crates/*/src` only — tests, benches and
# fixtures excluded): the per-crate line table CHANGES.md keeps one row
# of per PR. `serving closure` sums the workspace crates a server binary
# links (`smartpick_wire`'s normal dependencies, as cargo resolves them).
loc:
    @for c in crates/*; do printf '%-18s %6d\n' "$c" "$(find "$c/src" -name '*.rs' -exec cat {} + | wc -l)"; done
    @printf '%-18s %6d\n' total "$(find crates/*/src -name '*.rs' -exec cat {} + | wc -l)"
    @printf '%-18s %6d\n' 'serving closure' "$(find $(cargo tree -q -p smartpick_wire -e normal --prefix none | sed -n 's|.*(\(/.*/crates/[^)]*\)).*|\1/src|p' | sort -u) -name '*.rs' -exec cat {} + | wc -l)"

# Reproduce all paper figure/table binaries (release). Fails fast: a
# panicking figure binary fails the recipe (and the CI smoke job).
figures:
    cargo build --release -p smartpick_bench --bins
    for bin in fig1 fig2 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 table1 table5 sec7_families; do \
        echo "== $bin"; ./target/release/$bin || exit 1; done
