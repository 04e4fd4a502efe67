//! Manifest stability and drift-gate integration tests.
//!
//! The canonical manifest's whole value is invariance: same seed ⇒ same
//! bytes, no matter how many worker threads ran the fleet. These tests
//! pin that down, plus the drift gate on a genuinely impaired sweep and
//! on the committed goldens themselves.

use v6fleet::{run_serial, FleetRunner};
use v6report::{diff_manifests, Json, MatrixSpec, RunManifest};
use v6testbed::scenario::FaultVariant;
use v6testbed::Scenario;

/// A deliberately small but representative slice of the matrix: the
/// first `n` cells cover the paper topology across poison policies and
/// OS profiles (matrix order is topology-major).
fn subset(base_seed: u64, fault: FaultVariant, n: usize) -> Vec<Scenario> {
    Scenario::matrix_with_fault(base_seed, fault)
        .into_iter()
        .take(n)
        .collect()
}

#[test]
fn manifest_bytes_identical_across_thread_counts() {
    let spec = MatrixSpec {
        base_seed: 0xA11CE,
        fault: FaultVariant::Clean,
    };
    let cells = subset(spec.base_seed, spec.fault, 12);
    let serial = RunManifest::from_fleet(&spec, &cells, &run_serial(&cells));
    let parallel = RunManifest::from_fleet(&spec, &cells, &FleetRunner::new(4).run(&cells).report);
    assert_eq!(
        serial.canonical(),
        parallel.canonical(),
        "1-thread and 4-thread fleets must serialize byte-identically"
    );
}

#[test]
fn seeded_fault_variant_moves_only_fault_census_and_metrics_fields() {
    let base_seed = 0xFA07;
    let clean_spec = MatrixSpec {
        base_seed,
        fault: FaultVariant::Clean,
    };
    let outage_spec = MatrixSpec {
        base_seed,
        fault: FaultVariant::Dns64Outage,
    };
    // Paper-topology cells (matrix order is topology-major), which host
    // the Raspberry Pi the outage takes down.
    let clean_cells = subset(base_seed, clean_spec.fault, 22);
    let outage_cells = subset(base_seed, outage_spec.fault, 22);
    for (c, o) in clean_cells.iter().zip(&outage_cells) {
        assert_eq!(
            c.cell_label(),
            o.cell_label(),
            "rows line up across variants"
        );
    }
    let clean = RunManifest::from_fleet(&clean_spec, &clean_cells, &run_serial(&clean_cells));
    let outage = RunManifest::from_fleet(&outage_spec, &outage_cells, &run_serial(&outage_cells));

    let report = diff_manifests(clean.json(), outage.json());
    assert!(!report.is_clean(), "the outage must leave a trace");

    // Everything the outage may move: the fault configuration, the
    // degraded census fields, per-cell virtual timing / event counts /
    // metrics digests, the metrics sums, and the timing percentiles.
    let allowed = |p: &str| {
        p.starts_with("config.fault.")
            || p == "config.matrix_digest"
            || p.starts_with("metrics.")
            || p.starts_with("timing.")
            || p.ends_with(".degraded")
            || p.ends_with(".completed_us")
            || p.ends_with(".events")
            || p.ends_with(".metrics_digest")
    };
    for d in &report.drifts {
        assert!(
            allowed(&d.path),
            "unexpected drift outside the fault surface: {} ({:?} -> {:?})",
            d.path,
            d.before,
            d.after
        );
    }
    // …and it must actually move the fault surface: outage drops were
    // counted and the degraded census is no longer zero.
    let get_num = |m: &RunManifest, path: &[&str]| {
        m.json()
            .get_path(path)
            .and_then(Json::as_number)
            .expect("field exists")
    };
    assert_eq!(
        get_num(&clean, &["metrics", "fault", "outage_dropped"]),
        0.0
    );
    assert!(get_num(&outage, &["metrics", "fault", "outage_dropped"]) > 0.0);
    assert_eq!(get_num(&clean, &["census", "fleet", "degraded"]), 0.0);
    assert!(get_num(&outage, &["census", "fleet", "degraded"]) > 0.0);
    // The verdict behaviour itself recovered: retransmission rides out
    // the 2.4 s outage, so not one sc24/ip6me/intervened field drifted.
    assert!(report.drifts.iter().all(|d| {
        !d.path.contains("sc24")
            && !d.path.contains("ip6me")
            && !d.path.contains("intervened")
            && !d.path.contains("has_v4")
            && !d.path.contains("rfc8925")
    }));
}

fn committed(stem: &str) -> String {
    let path = format!("{}/../../reports/{stem}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn committed_clean_matrix_golden_is_in_sync() {
    // The same regression the CI report-gate enforces, in test form:
    // regenerate the canonical clean-matrix manifest and require byte
    // equality with the committed golden. If this fails after a
    // deliberate behaviour change, run `just bless-reports` and review
    // the fixture diff.
    let fresh = RunManifest::run_matrix(&MatrixSpec::canonical(FaultVariant::Clean), 2);
    assert_eq!(
        committed("matrix_clean"),
        fresh.canonical(),
        "reports/matrix_clean.json drifted from the live testbed behaviour"
    );
}

#[test]
fn mutating_a_committed_census_cell_is_behavioural_and_gated() {
    let golden = Json::parse(&committed("matrix_clean")).expect("golden parses");
    let mut mutated = golden.clone();
    let fleet = mutated
        .get_path(&["census", "fleet", "accurate_v6only"])
        .and_then(Json::as_number)
        .expect("census field present") as u64;
    match &mut mutated {
        Json::Obj(root) => match root.get_mut("census").and_then(|c| match c {
            Json::Obj(c) => c.get_mut("fleet"),
            _ => None,
        }) {
            Some(Json::Obj(row)) => {
                row.insert("accurate_v6only".into(), Json::U64(fleet + 1));
            }
            _ => panic!("census.fleet is an object"),
        },
        _ => panic!("manifest root is an object"),
    }
    let report = diff_manifests(&golden, &mutated);
    assert_eq!(report.drifts.len(), 1);
    assert_eq!(report.drifts[0].path, "census.fleet.accurate_v6only");
    assert!(
        !report.is_clean(),
        "a flipped census count must fail the gate"
    );
}

#[test]
fn population_manifest_bytes_identical_across_threads_and_shards() {
    // A small population keeps this in tier-1 test budget; the
    // invariance it asserts is size-independent (sampling is keyed per
    // index and the sketch merge is an exact monoid).
    let spec = v6fleet::PopulationSpec::paper_default(0xA11CE, 48);
    let canonical: Vec<String> = [(1usize, 1usize), (1, 8), (3, 1), (4, 5)]
        .into_iter()
        .map(|(threads, shards)| {
            let report = FleetRunner::new(threads)
                .run_population(&spec, shards)
                .report;
            RunManifest::from_population(&spec, &report).canonical()
        })
        .collect();
    for other in &canonical[1..] {
        assert_eq!(
            &canonical[0], other,
            "thread/shard layout leaked into the population manifest"
        );
    }
    assert!(canonical[0].contains("\"kind\": \"population\""));
}

#[test]
fn committed_population_golden_is_in_sync_with_the_sampler_config() {
    // Full regeneration of the 100k golden lives in the report-gate CI
    // job (`v6report check`); here we pin the config section — seed,
    // size, spec digest, and every weight table — so a silently edited
    // weight cannot masquerade as the committed population.
    let golden = Json::parse(&committed("population_100k")).expect("golden parses");
    // A zero-size run of the canonical spec: same config, no sampling.
    let empty_spec = v6fleet::PopulationSpec {
        size: 0,
        ..v6report::canonical_population()
    };
    let fresh = Json::parse(
        &RunManifest::from_population(
            &empty_spec,
            &FleetRunner::new(1).run_population(&empty_spec, 1).report,
        )
        .canonical(),
    )
    .expect("fresh parses");
    let digest = |v: &Json| {
        v.get_path(&["config", "spec_digest"])
            .cloned()
            .expect("spec digest present")
    };
    // The zero-size run shares every config field except `size`.
    assert_eq!(
        golden.get_path(&["config", "seed"]),
        fresh.get_path(&["config", "seed"])
    );
    assert_eq!(
        golden.get_path(&["config", "os_weights"]),
        fresh.get_path(&["config", "os_weights"])
    );
    assert_ne!(
        digest(&golden),
        digest(&fresh),
        "size participates in the digest"
    );
    assert_eq!(
        golden
            .get_path(&["config", "size"])
            .and_then(Json::as_number),
        Some(v6report::CANONICAL_POPULATION_SIZE as f64)
    );
    assert_eq!(
        golden
            .get_path(&["census", "fleet", "associated"])
            .and_then(Json::as_number),
        Some(v6report::CANONICAL_POPULATION_SIZE as f64),
        "every sampled cell is counted exactly once"
    );
}

#[test]
fn mutating_a_population_census_row_is_behavioural_and_gated() {
    // The committed 100k golden with one census count nudged by one
    // must fail the gate — the property that makes
    // a million-row census trustworthy without eyeballing it.
    let golden = Json::parse(&committed("population_100k")).expect("golden parses");
    let mut mutated = golden.clone();
    let current = mutated
        .get_path(&["census", "fleet", "accurate_v6only"])
        .and_then(Json::as_number)
        .expect("census field present") as u64;
    match &mut mutated {
        Json::Obj(root) => match root.get_mut("census").and_then(|c| match c {
            Json::Obj(c) => c.get_mut("fleet"),
            _ => None,
        }) {
            Some(Json::Obj(row)) => {
                row.insert("accurate_v6only".into(), Json::U64(current + 1));
            }
            _ => panic!("census.fleet is an object"),
        },
        _ => panic!("manifest root is an object"),
    }
    let report = diff_manifests(&golden, &mutated);
    assert_eq!(report.drifts.len(), 1);
    assert_eq!(report.drifts[0].path, "census.fleet.accurate_v6only");
    assert!(
        !report.is_clean(),
        "a flipped population census count must fail the gate"
    );
}
