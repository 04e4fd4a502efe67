//! Correctness gates. Every timed operation's output passes one of
//! these before its time counts; a failure is a failed operation and
//! makes the run incorrect.

use std::path::Path;

use v6fleet::{FleetReport, PopulationReport};
use v6report::{Json, MatrixSpec, RunManifest, CANONICAL_BASE_SEED};
use v6testbed::scenario::FaultVariant;
use v6testbed::CellObservation;

/// The committed goldens a run compares against, read once at set-up.
#[derive(Debug, Clone)]
pub struct Goldens {
    /// `reports/matrix_<fault>.json`, indexed by [`FaultVariant::index`].
    pub matrix: Vec<String>,
    /// `reports/population_100k.json`.
    pub population: String,
}

impl Goldens {
    /// Read every golden under `reports`.
    pub fn load(reports: &Path) -> Result<Goldens, String> {
        let read = |stem: &str| {
            let path = reports.join(format!("{stem}.json"));
            std::fs::read_to_string(&path)
                .map_err(|e| format!("read golden {}: {e}", path.display()))
        };
        let matrix = FaultVariant::ALL
            .iter()
            .map(|&f| read(&MatrixSpec::canonical(f).file_stem()))
            .collect::<Result<Vec<_>, _>>()?;
        let population = read(&format!(
            "population_{}k",
            v6report::CANONICAL_POPULATION_SIZE / 1000
        ))?;
        Ok(Goldens { matrix, population })
    }

    /// The golden for the canonical matrix under `fault`.
    pub fn matrix(&self, fault: FaultVariant) -> &str {
        &self.matrix[fault.index()]
    }
}

/// Byte-for-byte equality, naming the first differing line on failure.
pub fn same_bytes(what: &str, fresh: &str, golden: &str) -> Result<(), String> {
    if fresh == golden {
        return Ok(());
    }
    let line = fresh
        .lines()
        .zip(golden.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || fresh.lines().count().min(golden.lines().count()) + 1,
            |i| i + 1,
        );
    Err(format!(
        "{what}: output differs from its reference at line {line} ({} vs {} bytes)",
        fresh.len(),
        golden.len()
    ))
}

/// The engine's frame-conservation law over a fleet: every transmitted
/// (or fault-duplicated) frame was forwarded, fault-dropped or dropped
/// on an unlinked port, and every delivered frame was received.
pub fn conservation(what: &str, report: &FleetReport) -> Result<(), String> {
    let totals = report.metrics_totals();
    let (tx, rx) = totals.conservation();
    let (e, f) = (totals.engine, totals.faults);
    let sent = tx + f.duplicated;
    let accounted = e.frames_forwarded + f.total_dropped() + e.frames_dropped_unlinked;
    if sent == accounted && rx == e.frames_delivered {
        Ok(())
    } else {
        Err(format!(
            "{what}: frame conservation broken (tx+duplicated {sent} vs accounted {accounted}, rx {rx} vs delivered {})",
            e.frames_delivered
        ))
    }
}

/// A matrix manifest's gate: the golden bytes at the canonical base
/// seed, frame conservation at any other seed.
pub fn matrix_manifest(
    goldens: &Goldens,
    spec: &MatrixSpec,
    report: &FleetReport,
    canonical: &str,
) -> Result<(), String> {
    let what = format!(
        "matrix {} base seed {:#x}",
        spec.fault.label(),
        spec.base_seed
    );
    if spec.base_seed == CANONICAL_BASE_SEED {
        same_bytes(&what, canonical, goldens.matrix(spec.fault))
    } else {
        conservation(&what, report)
    }
}

/// A census's 1-worker and N-worker reports must be equal and cover
/// every sampled cell.
pub fn population_pair(
    what: &str,
    size: u64,
    x1: &PopulationReport,
    xn: &PopulationReport,
) -> Result<(), String> {
    if x1 != xn {
        return Err(format!("{what}: 1-worker and N-worker reports differ"));
    }
    if x1.size != size || x1.sketch.samples != size {
        return Err(format!(
            "{what}: report covers {} of {size} cells",
            x1.sketch.samples
        ));
    }
    Ok(())
}

/// The canonical census manifest must equal the committed golden.
pub fn population_golden(
    goldens: &Goldens,
    spec: &v6fleet::PopulationSpec,
    report: &PopulationReport,
) -> Result<(), String> {
    let fresh = RunManifest::from_population(spec, report).canonical();
    same_bytes("canonical population census", &fresh, &goldens.population)
}

/// A `GET /portal` reply must be a 200 whose body is exactly what the
/// portal handler computes for the same path (and therefore parses).
pub fn portal_reply(path: &str, status: u16, body: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("GET {path}: status {status}"));
    }
    let (want_status, want) = v6labd::portal::handle(path);
    if want_status != 200 || Json::parse(body).is_err() {
        return Err(format!("GET {path}: reply does not parse"));
    }
    same_bytes(&format!("GET {path}"), body, &want)
}

/// A cell observed two ways (traced and untraced, or cold and warm)
/// must be observed identically.
pub fn same_observation(
    what: &str,
    got: &CellObservation,
    reference: &CellObservation,
) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!("{what}: observed {got:?}, reference {reference:?}"))
    }
}

/// The traced run's layer spans must account for at least 90% of the
/// traced cells' wall time, or the profile explains too little to use.
pub fn span_coverage(coverage: f64) -> Result<(), String> {
    if coverage >= 0.9 {
        Ok(())
    } else {
        Err(format!(
            "spans cover {:.1}% of traced cell time (< 90%)",
            coverage * 100.0
        ))
    }
}
