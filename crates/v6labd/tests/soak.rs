//! Soak lockdown: the committed `reports/soak_smoke.json` golden stays
//! in sync with the harness, any mutated field gates, and the summary
//! is a pure function of the soak config (threads never leak in).

use v6labd::{run_soak, smoke_manifest, Severity, SoakConfig};
use v6report::{diff_manifests, Json, RunManifest};

fn committed_golden() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports/soak_smoke.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading committed golden {path}: {e}"))
}

#[test]
fn committed_soak_golden_matches_the_harness() {
    assert_eq!(
        smoke_manifest().canonical(),
        committed_golden(),
        "reports/soak_smoke.json has drifted — regenerate with `just bless-reports` \
         only if the behaviour change is intended"
    );
}

#[test]
fn soak_summary_is_deterministic_and_thread_invariant() {
    let one = run_soak(SoakConfig {
        threads: 1,
        ..SoakConfig::smoke()
    });
    let two = run_soak(SoakConfig {
        threads: 3,
        ..SoakConfig::smoke()
    });
    assert_eq!(one.0, two.0, "worker-pool width leaked into the summary");
    assert_eq!(
        RunManifest::from_soak(&one.0).canonical(),
        RunManifest::from_soak(&two.0).canonical()
    );
}

#[test]
fn the_smoke_soak_raises_the_expected_incidents() {
    let (summary, detector) = run_soak(SoakConfig::smoke());
    // Schedule: clean @1, lossy @2 and @6, dns64 @3, nat64 @4,
    // population @5 — six jobs over eight ticks.
    assert_eq!(summary.jobs.len(), 6);
    assert_eq!(summary.ticks, 8);
    assert_eq!(
        summary.jobs.iter().filter(|j| j.kind == "matrix").count(),
        5
    );
    // Every impaired sweep must trip the detector against the clean
    // baseline; the repeated lossy sweep must dedup, not duplicate.
    let lossy_drop = detector
        .incidents()
        .iter()
        .find(|i| i.key == "matrix/lossy-uplink" && i.field == "metrics.fault.dropped")
        .expect("lossy-uplink must surge fault.dropped vs the clean baseline");
    assert_eq!(
        lossy_drop.count, 2,
        "two lossy sweeps → one deduplicated incident with count 2"
    );
    assert_eq!(lossy_drop.severity, Severity::Warning);
    assert!(
        detector
            .incidents()
            .iter()
            .any(|i| i.key == "matrix/dns64-outage"),
        "dns64 outage must trip at least one watch"
    );
    // The latency sketch covers every scheduled cell: 5 × 66 matrix
    // cells + the population cells.
    assert_eq!(summary.latency.count, 5 * 66 + 1_500);
}

#[test]
fn any_mutated_golden_field_gates() {
    let golden = Json::parse(&committed_golden()).expect("golden parses");
    // Mutate one leaf in each top-level section and check the differ
    // reports it (every drift fails the gate).
    let mutate = |path: &[&str], bump: fn(&Json) -> Json| {
        let mut doc = golden.clone();
        // Walk to the parent object and replace the leaf.
        fn set_at(v: &mut Json, path: &[&str], bump: fn(&Json) -> Json) {
            if path.len() == 1 {
                let old = v.get(path[0]).expect("leaf exists").clone();
                v.set(path[0], bump(&old));
                return;
            }
            let Json::Obj(map) = v else {
                panic!("path walks objects")
            };
            set_at(
                map.get_mut(path[0]).expect("segment exists"),
                &path[1..],
                bump,
            );
        }
        set_at(&mut doc, path, bump);
        doc
    };
    let bump_u64 = |v: &Json| match v {
        Json::U64(n) => Json::U64(n + 1),
        other => panic!("expected u64, got {other:?}"),
    };
    let flip_str = |v: &Json| match v {
        Json::Str(s) => Json::Str(format!("{s}-mutated")),
        other => panic!("expected string, got {other:?}"),
    };
    let cases: Vec<Json> = vec![
        mutate(&["config", "ticks"], bump_u64),
        mutate(&["latency", "p99"], bump_u64),
        mutate(&["latency", "digest"], flip_str),
    ];
    for mutated in cases {
        let report = diff_manifests(&golden, &mutated);
        assert!(!report.is_clean(), "soak drift must gate");
    }
    // Array rows (jobs / incidents) gate too: drop the last job row.
    let mut doc = golden.clone();
    let Json::Obj(map) = &mut doc else { panic!() };
    let Some(Json::Arr(jobs)) = map.get_mut("jobs") else {
        panic!("jobs array missing")
    };
    jobs.pop();
    let report = diff_manifests(&golden, &doc);
    assert!(!report.is_clean(), "losing a job row must gate");
}
