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
# variant, the 100k sampled population, bench) into target/reports for
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
# a million sampled cells through the sharded census and records
# scenarios/sec as the population_census row in BENCH_engine.json.
population:
    cargo run --release --example population_census -- --size 1000000 --bench BENCH_engine.json

# Cold-vs-warm arena bench: run the census three ways (cold
# build-and-throw-away, warm single-core arena, warm full pool), assert
# the aggregates byte-identical, and record the warm_cell row in
# BENCH_engine.json.
warm-bench:
    cargo run --release --example population_census -- --size 50000 --shards 8 --warm-bench BENCH_engine.json

# 1-vs-N worker-thread throughput on the 66-cell matrix.
bench-fleet:
    cargo bench -p v6bench --bench fleet_throughput

# The engine perf pair: raw forwarding ring per trace mode, then the
# fleet sweep the acceptance numbers come from.
bench:
    cargo bench -p v6bench --bench engine_hot_path
    cargo bench -p v6bench --bench fleet_throughput

# Regenerate BENCH_engine.json (frames/sec + events/sec per trace mode,
# fleet sweep timings, and the recorded pre-optimization baseline).
bench-report:
    cargo run --release --example bench_report

# One iteration of every bench body — proves the benches still run
# without paying for full sampling (what CI executes).
bench-smoke:
    cargo bench -p v6bench --bench engine_hot_path -- --test
    cargo bench -p v6bench --bench fleet_throughput -- --test
    cargo bench -p v6bench --bench population_census -- --test
    cargo bench -p v6bench --bench codec_zero_copy -- --test

# The codec-conformance pass at CI depth: the one frame parser and the
# one DNS parser against the pinned outcomes of the committed corpus,
# plus 256 proptest cases per suite, both checksum kernels, and the
# frame-pool steady-state gate.
conformance:
    PROPTEST_CASES=256 cargo test -p v6wire --test conformance -q
    PROPTEST_CASES=256 cargo test -p v6wire --test prop_roundtrip -q
    PROPTEST_CASES=256 cargo test -p v6dns --test conformance -q
    PROPTEST_CASES=256 cargo test -p v6dns --test prop_dns -q
    SC24_CHECKSUM_KERNEL=scalar cargo test -p v6wire -q
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

# Soak the service: boot an in-process daemon, hammer the portal-scoring
# HTTP path, and record latency percentiles as the service_soak row in
# BENCH_engine.json.
soak:
    cargo run --release --example load_gen -- --requests 2000 --clients 4 --bench BENCH_engine.json

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
