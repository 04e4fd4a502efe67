//! Every correctness gate must pass on the real thing and trip on a
//! mutated golden or a forced mismatch.

use perfbench::gates::{self, Goldens};
use perfbench::host;
use v6fleet::{FleetRunner, PopulationSpec};
use v6report::{MatrixSpec, RunManifest};
use v6testbed::scenario::FaultVariant;
use v6testbed::CellSpec;

fn goldens() -> Goldens {
    Goldens::load(&host::repo_root().join("reports")).expect("committed goldens load")
}

/// Flip one byte in the middle of `text`.
fn mutate(text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let i = bytes.len() / 2;
    bytes[i] = if bytes[i] == b'0' { b'1' } else { b'0' };
    String::from_utf8(bytes).expect("ascii golden")
}

#[test]
fn canonical_matrix_passes_and_a_mutated_golden_trips() {
    let goldens = goldens();
    let spec = MatrixSpec::canonical(FaultVariant::Clean);
    let (report, text) = perfbench::matrix::manifest(&spec, 1);
    gates::matrix_manifest(&goldens, &spec, &report, &text)
        .expect("canonical manifest equals its golden");

    let mut bad = goldens.clone();
    bad.matrix[FaultVariant::Clean.index()] = mutate(goldens.matrix(FaultVariant::Clean));
    let err =
        gates::matrix_manifest(&bad, &spec, &report, &text).expect_err("mutated golden trips");
    assert!(err.contains("differs"), "{err}");
}

#[test]
fn conservation_holds_under_faults_and_trips_on_a_lost_frame() {
    let goldens = goldens();
    let spec = MatrixSpec {
        base_seed: 7,
        fault: FaultVariant::LossyUplink,
    };
    let (mut report, text) = perfbench::matrix::manifest(&spec, 1);
    gates::matrix_manifest(&goldens, &spec, &report, &text)
        .expect("conservation holds off the canonical seed");

    report.results[0].metrics.engine.frames_forwarded += 1;
    let err = gates::conservation("mutated", &report).expect_err("an unaccounted frame trips");
    assert!(err.contains("conservation"), "{err}");
}

#[test]
fn population_pair_trips_on_a_different_report_or_a_short_one() {
    let a = FleetRunner::new(1).run_population(&PopulationSpec::paper_default(1, 40), 4);
    let b = FleetRunner::new(2).run_population(&PopulationSpec::paper_default(1, 40), 3);
    gates::population_pair("same spec", 40, &a.report, &b.report)
        .expect("thread and shard invariant");

    let other = FleetRunner::new(1).run_population(&PopulationSpec::paper_default(2, 40), 4);
    assert!(gates::population_pair("other seed", 40, &a.report, &other.report).is_err());
    assert!(gates::population_pair("wrong size", 41, &a.report, &a.report).is_err());
}

#[test]
fn population_golden_trips_on_a_mutated_golden() {
    let spec = PopulationSpec::paper_default(3, 30);
    let run = FleetRunner::new(1).run_population(&spec, 2);
    let mut goldens = goldens();
    goldens.population = RunManifest::from_population(&spec, &run.report).canonical();
    gates::population_golden(&goldens, &spec, &run.report).expect("own manifest matches");
    goldens.population = mutate(&goldens.population);
    assert!(gates::population_golden(&goldens, &spec, &run.report).is_err());
}

#[test]
fn observation_gate_trips_on_a_forced_mismatch() {
    let cell: CellSpec = PopulationSpec::paper_default(5, 10).cell(3);
    let cold = cell.run_observation();
    let warm = v6testbed::CellArena::new().run_observation(cell);
    gates::same_observation("cold vs warm", &cold, &warm).expect("warm equals cold");
    let mut forced = warm;
    forced.events += 1;
    assert!(gates::same_observation("forced", &cold, &forced).is_err());
}

#[test]
fn portal_gate_trips_on_status_and_body() {
    let path = "/portal?client=42";
    let (status, body) = v6labd::portal::handle(path);
    gates::portal_reply(path, status, &body).expect("the handler's own reply passes");
    assert!(gates::portal_reply(path, 500, &body).is_err());
    assert!(gates::portal_reply(path, 200, "{}").is_err());
    assert!(gates::portal_reply(path, 200, &mutate(&body)).is_err());
}

#[test]
fn coverage_gate_trips_below_ninety_percent() {
    assert!(gates::span_coverage(0.95).is_ok());
    assert!(gates::span_coverage(0.85).is_err());
}
