//! Population census lockdown: the merge algebra proven by property
//! tests, differential determinism across thread/shard layouts, the
//! sampler's statistical sanity, and exact-vs-sketch percentile
//! agreement.
//!
//! These are the tests ISSUE 6 stakes the 1M-cell census on: nobody can
//! eyeball a million-row report, so the aggregation has to be correct
//! by algebra, not by inspection.

use proptest::prelude::*;
use v6fleet::{nearest_rank, CensusSketch, FleetRunner, LatencySketch, PopulationSpec};
use v6testbed::scenario::{CellObservation, FaultVariant, PathFamily, ResolutionFailure};
use v6testbed::{CellSpec, OsProfileId};

/// A synthetic observation derived from 64 bits — exercises every
/// counter the sketch folds without paying for a simulation run.
fn synth_obs(bits: u64) -> CellObservation {
    let fam = |b: u64| match b % 3 {
        0 => PathFamily::V6,
        1 => PathFamily::V4,
        _ => PathFamily::Fail,
    };
    CellObservation {
        rfc8925_engaged: bits & 0x01 != 0,
        has_v4: bits & 0x02 != 0,
        sc24: fam(bits >> 2),
        ip6me: fam(bits >> 4),
        intervened: bits & 0x40 != 0,
        naive_counted: true,
        accurate_counted: bits & 0x80 != 0,
        degraded: bits & 0x100 != 0,
        dns_failure: match (bits >> 45) % 5 {
            0 => None,
            k => Some(ResolutionFailure::ALL[(k - 1) as usize]),
        },
        completed_us: (bits >> 9) % 30_000_000,
        events: (bits >> 13) % 100_000,
    }
}

/// Pair each synthetic observation with a real sampled cell.
fn synth_cells(seed: u64, obs_bits: &[u64]) -> Vec<(CellSpec, CellObservation)> {
    let spec = PopulationSpec::paper_default(seed, obs_bits.len().max(1) as u64);
    obs_bits
        .iter()
        .enumerate()
        .map(|(i, &bits)| (spec.cell(i as u64), synth_obs(bits)))
        .collect()
}

fn fold_all(cells: &[(CellSpec, CellObservation)]) -> CensusSketch {
    let mut s = CensusSketch::new();
    for &(spec, obs) in cells {
        s.fold(spec, obs);
    }
    s
}

fn merged(a: &CensusSketch, b: &CensusSketch) -> CensusSketch {
    let mut m = a.clone();
    m.merge_from(b);
    m
}

proptest! {
    /// The algebra the streaming census stands on: over random cell
    /// populations and random 3-way shard splits, sketch merge is
    /// associative, commutative, and equal to folding the union — so
    /// no shard layout can produce a different aggregate.
    #[test]
    fn merge_is_an_exact_monoid_over_random_shard_splits(
        seed in any::<u64>(),
        obs_bits in prop::collection::vec(any::<u64>(), 0..120),
        assignment in prop::collection::vec(0..3u8, 0..120),
    ) {
        let cells = synth_cells(seed, &obs_bits);
        let whole = fold_all(&cells);
        // Random (not contiguous) 3-way split of the same cells.
        let mut shards = [Vec::new(), Vec::new(), Vec::new()];
        for (i, &cell) in cells.iter().enumerate() {
            let which = assignment.get(i).copied().unwrap_or((i % 3) as u8);
            shards[usize::from(which)].push(cell);
        }
        let [a, b, c] = shards.map(|s| fold_all(&s));
        // Associative: (a⊕b)⊕c == a⊕(b⊕c).
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        // Commutative: a⊕b == b⊕a.
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        // Union: any grouping equals folding every cell in one pass.
        prop_assert_eq!(merged(&merged(&c, &a), &b), whole);
    }

    /// The latency sketch alone obeys the same algebra, including its
    /// digest (which covers the full bucket table).
    #[test]
    fn latency_sketch_merge_equals_union(
        samples in prop::collection::vec(0..50_000_000u64, 0..200),
        split in any::<u64>(),
    ) {
        let mut whole = LatencySketch::new();
        let mut left = LatencySketch::new();
        let mut right = LatencySketch::new();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if (split >> (i % 64)) & 1 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut ab = left.snapshot();
        ab.merge_from(&right);
        let mut ba = right.snapshot();
        ba.merge_from(&left);
        prop_assert_eq!(&ab, &whole);
        prop_assert_eq!(&ba, &whole);
        prop_assert_eq!(ab.digest(), whole.digest());
    }

    /// Sketch quantiles against the exact nearest-rank computation on
    /// small populations: never below the exact value, and within the
    /// bucket's 1/16 relative width above it (+1 for the linear range).
    #[test]
    fn sketch_percentiles_agree_with_exact(
        samples in prop::collection::vec(0..40_000_000u64, 1..150),
    ) {
        let mut sketch = LatencySketch::new();
        for &v in &samples {
            sketch.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.50, 0.90, 0.99] {
            let exact = nearest_rank(&sorted, q);
            let approx = sketch.quantile(q);
            prop_assert!(approx >= exact, "q={q}: sketch {approx} below exact {exact}");
            prop_assert!(
                approx <= exact + exact / 16 + 1,
                "q={q}: sketch {approx} beyond 1/16 above exact {exact}"
            );
        }
        prop_assert_eq!(sketch.max, *sorted.last().unwrap());
    }
}

/// Same spec ⇒ byte-identical report across 1-vs-N threads and shard
/// counts 1, 3, 8 — the population mirror of `tests/fleet.rs`'s
/// cross-thread guarantees. Small population, real simulation runs.
#[test]
fn report_is_identical_across_threads_and_shards() {
    let spec = PopulationSpec::paper_default(0x5c24, 36);
    let baseline = FleetRunner::new(1).run_population(&spec, 1);
    for (threads, shards) in [(1, 3), (1, 8), (3, 1), (3, 3), (4, 8)] {
        let run = FleetRunner::new(threads).run_population(&spec, shards);
        assert_eq!(
            run.report, baseline.report,
            "threads={threads} shards={shards} drifted from the 1×1 baseline"
        );
        assert_eq!(run.report.digest(), baseline.report.digest());
    }
}

/// The streaming aggregation equals the materializing one: running the
/// same cells through the classic FleetRunner (full ScenarioResults)
/// produces the same census and per-OS rows the sketch reports.
#[test]
fn streaming_census_equals_materialized_fleet() {
    let spec = PopulationSpec::paper_default(0xbeef, 12);
    let population = FleetRunner::new(1).run_population(&spec, 1).report;
    let scenarios: Vec<_> = (0..spec.size).map(|i| spec.cell(i).to_scenario()).collect();
    let fleet = v6fleet::run_serial(&scenarios);
    assert_eq!(population.sketch.census, fleet.census);
    assert_eq!(population.census_by_os(), fleet.census_by_os());
    assert_eq!(
        population.sketch.completed_us.max,
        fleet.timing.completed_us.max
    );
    assert_eq!(population.sketch.events.max, fleet.timing.events.max);
}

/// The streaming hook the `/metrics` endpoint rides on: an observer
/// merging each shard sketch as it lands (via the non-consuming
/// `merge_from`) ends up with exactly the final report's sketch, and
/// every shard is reported exactly once — on serial and pooled runs.
#[test]
fn observed_shards_merge_to_the_final_sketch() {
    use std::sync::Mutex;
    use v6fleet::FleetObserver;

    struct Live {
        sketch: Mutex<CensusSketch>,
        seen: Mutex<Vec<usize>>,
    }
    impl FleetObserver for Live {
        fn shard_done(&self, shard: usize, sketch: &CensusSketch) {
            self.sketch.lock().unwrap().merge_from(sketch);
            self.seen.lock().unwrap().push(shard);
        }
    }

    let spec = PopulationSpec::paper_default(0x5c24, 24);
    for (threads, shards) in [(1, 5), (3, 5)] {
        let live = Live {
            sketch: Mutex::new(CensusSketch::new()),
            seen: Mutex::new(Vec::new()),
        };
        let run = FleetRunner::new(threads).run_population_observed(&spec, shards, &live);
        assert_eq!(*live.sketch.lock().unwrap(), run.report.sketch);
        let mut seen = live.seen.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..shards).collect::<Vec<_>>());
        // The observed run is the plain run — same bytes.
        let plain = FleetRunner::new(threads).run_population(&spec, shards);
        assert_eq!(run.report, plain.report);
    }
}

/// Fixed seed, 100k sampled cells (sampling only — no simulation):
/// per-dimension empirical frequencies land within tolerance of the
/// configured weights, and the zero-weight profile never appears.
#[test]
fn sampler_tracks_configured_weights_at_100k() {
    const N: u64 = 100_000;
    let spec = PopulationSpec::paper_default(0x5c24, N);
    let mut os_counts = vec![0u64; spec.os_weights.len()];
    let mut fault_counts = [0u64; FaultVariant::ALL.len()];
    let mut raw_gw = 0u64;
    let mut poison_off = 0u64;
    for i in 0..N {
        let cell = spec.cell(i);
        os_counts[cell.os.0 as usize] += 1;
        fault_counts[cell.fault.index()] += 1;
        raw_gw += u64::from(cell.topology.label() == "raw-gw");
        poison_off += u64::from(cell.poison.label() == "off");
    }
    // ±1 percentage point absolute: ~7σ at n=100k for the largest
    // weights, far tighter than any plausible sampler bug.
    let tolerance = 0.01;
    let os_total: u64 = spec.os_weights.iter().map(|&(_, w)| u64::from(w)).sum();
    for &(id, w) in &spec.os_weights {
        let expected = f64::from(w) / os_total as f64;
        let got = os_counts[id.0 as usize] as f64 / N as f64;
        if w == 0 {
            assert_eq!(
                os_counts[id.0 as usize],
                0,
                "zero-weight profile {} was sampled",
                id.name()
            );
        } else {
            assert!(
                (got - expected).abs() < tolerance,
                "{}: expected {expected:.4}, got {got:.4}",
                id.name()
            );
        }
    }
    let zero_weight_exists = spec.os_weights.iter().any(|&(_, w)| w == 0);
    assert!(
        zero_weight_exists,
        "paper_default must configure a zero-weight profile"
    );
    for (f, &(variant, w)) in FaultVariant::ALL.iter().zip(&spec.fault_weights) {
        assert_eq!(*f, variant, "fault weights in ALL order");
        let expected = f64::from(w) / 1000.0;
        let got = fault_counts[f.index()] as f64 / N as f64;
        assert!(
            (got - expected).abs() < tolerance,
            "{}: {got:.4} vs {expected:.4}",
            f.label()
        );
    }
    assert!((raw_gw as f64 / N as f64 - 0.100).abs() < tolerance);
    assert!((poison_off as f64 / N as f64 - 0.100).abs() < tolerance);
}

/// The nearest-rank edge cases that were latent before the sketch
/// landed: empty and single-element inputs, at every exposed level.
#[test]
fn percentile_edge_cases_empty_and_single() {
    assert_eq!(nearest_rank(&[], 0.50), 0);
    assert_eq!(nearest_rank(&[], 0.99), 0);
    assert_eq!(nearest_rank(&[42], 0.50), 42);
    assert_eq!(nearest_rank(&[42], 0.99), 42);
    let empty = LatencySketch::new();
    assert_eq!((empty.quantile(0.5), empty.quantile(0.99)), (0, 0));
    let mut single = LatencySketch::new();
    single.record(1_234_567);
    for q in [0.50, 0.90, 0.99] {
        let v = single.quantile(q);
        assert!((1_234_567..=1_234_567 + 1_234_567 / 16 + 1).contains(&v));
    }
    // An empty population's report renders all-zero percentiles rather
    // than panicking.
    let spec = PopulationSpec::paper_default(1, 0);
    let report = FleetRunner::new(2).run_population(&spec, 3).report;
    assert_eq!(report.sketch.samples, 0);
    assert_eq!(report.completed_us().p99, 0);
    assert_eq!(report.events().p50, 0);
}

/// OS ids round-trip through the interned table and the by-OS rows are
/// keyed by exactly that table.
#[test]
fn by_os_rows_are_keyed_by_the_interned_table() {
    let spec = PopulationSpec::paper_default(7, 200);
    let mut expected = vec![0u64; spec.os_weights.len()];
    for i in 0..spec.size {
        expected[spec.cell(i).os.0 as usize] += 1;
    }
    // Fold with synthetic observations — row placement is what's under
    // test, not simulation output.
    let mut sketch = CensusSketch::new();
    for i in 0..spec.size {
        sketch.fold(spec.cell(i), synth_obs(i.wrapping_mul(0x9e3779b97f4a7c15)));
    }
    for id in OsProfileId::all() {
        assert_eq!(
            sketch.by_os[id.0 as usize].associated as u64,
            expected[id.0 as usize],
            "row for {}",
            id.name()
        );
    }
}
