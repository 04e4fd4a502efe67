# Project task runner. `just` with no arguments runs the full gate.

default: verify fleet chaos report-check lint

# Tier-1 verification: the root package must build in release and pass
# its unit + integration tests (this is the gate CI has always enforced).
verify:
    cargo build --release
    cargo test -q

# The fleet runner's own suite: crate tests, the cross-thread
# determinism integration tests, and the golden Fig. 6 trace.
fleet:
    cargo test -p v6fleet -q
    cargo test -q --test fleet
    cargo test -q --test golden_trace

# Lint gate: the whole workspace (every target) warning-clean, plus
# canonical formatting.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all --check

# Emit fresh canonical run manifests (clean matrix, every fault
# variant, the 100k sampled population) into target/reports for
# inspection — never touches the committed goldens.
report:
    cargo run --release -p v6report -- emit --out target/reports

# The CI drift gate: re-run the canonical sweeps, diff the fresh
# manifests against the committed reports/*.json goldens, and fail on
# behavioural drift. Fresh manifests land in target/reports for
# post-mortem diffing.
report-check:
    cargo run --release -p v6report -- check

# Regenerate the committed reports/*.json goldens after a deliberate
# behaviour change (review the fixture diff, same as bless-traces!).
bless-reports:
    cargo run --release -p v6report -- emit

# Everything in the workspace, including property tests.
test-all:
    cargo test --workspace -q

# Chaos gate: the fault-injection layer's own tests, the seeded fault
# matrix smoke sweep (all impaired variants, serial == parallel), and
# the conservation/determinism property tests that must hold under any
# fault plan.
chaos:
    cargo test -p v6fault -q
    cargo test -q --test chaos
    cargo test -p v6sim -q --test prop_metrics

# Run the full Fig. 4 matrix through the parallel fleet and print the
# aggregate census.
census:
    cargo run --release --example fleet_census

# The same matrix additionally swept under every fault variant, with a
# clean-vs-impaired per-OS census diff.
census-faults:
    cargo run --release --example fleet_census -- --faults

# The full 1M-host population census (off CI's critical path): streams
# a million sampled cells through the sharded census and prints the
# census plus its wall-clock rate.
population:
    cargo run --release --example population_census -- --size 1000000

# Cold-vs-warm arena differential: run the census three ways (cold
# build-and-throw-away, warm single-core arena, warm full pool), assert
# the aggregates byte-identical, print each rate, and fail unless warm x1
# beats cold and (on >= 2 cores) warm xN beats warm x1.
warm-bench:
    cargo run --release --example population_census -- --size 50000 --shards 8 --warm-bench

# The benchmark (BENCHMARK.json's command): end-to-end and per-layer
# figures with repetitions, spread, host facts and same-run baselines.
# See perfbench/README.md for the workloads and their output.
bench:
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload census --seed 1 --seconds 50 --trace 0
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload matrix --seed 1 --seconds 50 --trace 0

# One iteration of every bench body — proves the benches still run
# without paying for full sampling (what CI executes).
bench-smoke:
    cargo bench -p v6bench -- --test

# The codec-conformance pass at CI depth: the one frame parser and the
# one DNS parser against the pinned outcomes of the committed corpus,
# plus 256 proptest cases per suite (the checksum kernel-equality tests
# among them), and the frame-pool steady-state gate.
conformance:
    PROPTEST_CASES=256 cargo test -p v6wire --test conformance -q
    PROPTEST_CASES=256 cargo test -p v6wire --test prop_roundtrip -q
    PROPTEST_CASES=256 cargo test -p v6dns --test conformance -q
    PROPTEST_CASES=256 cargo test -p v6dns --test prop_dns -q
    cargo test -q --test pool_steady_state

# The DNS realism lane at CI depth: master-file fixtures round-trip
# byte-identically, the iterative resolver matches the flat view (or
# classifies its failure) over 256 random delegation trees, the
# EDNS0/TCP-fallback and negative-cache suites, and the
# broken-delegation census gate against its committed golden.
dns-realism:
    PROPTEST_CASES=256 cargo test -p v6dns --test zone_roundtrip -q
    PROPTEST_CASES=256 cargo test -p v6dns --test delegation -q
    cargo test -p v6dns -q
    cargo test -p v6host -q
    cargo test -p v6testbed -q
    cargo run --release -p v6report -- check matrix_broken-delegation

# Regenerate the committed golden trace after a deliberate protocol
# change (review the fixture diff!).
bless-traces:
    BLESS_TRACES=1 cargo test -q --test golden_trace

# Run the v6labd daemon in the foreground (SIGTERM / POST /shutdown
# stops it). Port 0 picks an ephemeral port; pass one to pin it.
serve port="8925":
    cargo run --release -p v6labd -- serve --port {{port}} --threads 2

# The daemon's own suite: cron/scheduler property tests, detector
# thresholds, the deterministic soak golden, and the end-to-end HTTP
# lifecycle tests.
labd:
    cargo test -p v6labd -q

# Full service lifecycle over real HTTP + SIGTERM (what CI runs).
service-smoke:
    bash scripts/service_smoke.sh

# Regenerate the committed soak golden (reports/soak_smoke.json) after
# a deliberate behaviour change (review the fixture diff!).
bless-soak:
    cargo run --release -p v6labd -- soak --write reports/soak_smoke.json
