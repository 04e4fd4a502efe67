//! The job subsystem: what the daemon runs and how it records it.
//!
//! A [`JobSpec`] is the wire form of one unit of work — a 66-cell
//! scenario matrix under one fault regime, or a sampled population
//! census. Executing a job always produces a canonical
//! [`RunManifest`], built by exactly the same code path the batch
//! tools use ([`RunManifest::from_fleet`] /
//! [`RunManifest::from_population`]) — which is why a manifest fetched
//! from `GET /jobs/:id/manifest` is byte-identical to one emitted by
//! `v6report emit` for the same spec.

use v6fleet::{FleetObserver, FleetRunner, PopulationSpec};
use v6report::{Json, MatrixSpec, RunManifest, CANONICAL_BASE_SEED};
use v6testbed::scenario::FaultVariant;

/// Default shard count for population jobs (matches the canonical
/// manifest tooling; the report is shard-invariant either way).
pub const DEFAULT_POPULATION_SHARDS: usize = 8;

/// One unit of daemon work, as submitted over `POST /jobs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSpec {
    /// The full 66-cell scenario matrix under one fault regime.
    Matrix {
        /// Seed the matrix derives per-cell seeds from.
        base_seed: u64,
        /// Fault regime every cell runs under.
        fault: FaultVariant,
    },
    /// A sampled population census (paper-default mix).
    Population {
        /// Master sampling seed.
        seed: u64,
        /// Cells to sample.
        size: u64,
        /// Work-queue shards (report-invariant).
        shards: usize,
        /// Milliseconds to dwell after each shard — an operator
        /// throttle so a background census doesn't monopolise the
        /// pool. Virtual time is untouched, so the manifest is
        /// identical at any pace.
        pace_ms: u64,
    },
}

fn fault_by_label(label: &str) -> Option<FaultVariant> {
    FaultVariant::ALL.into_iter().find(|f| f.label() == label)
}

fn get_u64(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(Json::U64(n)) => Ok(*n),
        Some(other) => Err(format!(
            "field {key:?}: expected a non-negative integer, got {other:?}"
        )),
    }
}

impl JobSpec {
    /// Parse a `POST /jobs` body. `kind` selects the job; everything
    /// else has canonical defaults:
    ///
    /// * `{"kind":"matrix","fault":"lossy-uplink","base_seed":…}`
    /// * `{"kind":"population","size":…,"seed":…,"shards":…,"pace_ms":…}`
    pub fn parse(body: &str) -> Result<JobSpec, String> {
        let v = Json::parse(body).map_err(|e| format!("job body: {e}"))?;
        let kind = match v.get("kind") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("job body: missing string field \"kind\"".into()),
        };
        match kind.as_str() {
            "matrix" => {
                let fault = match v.get("fault") {
                    None => FaultVariant::Clean,
                    Some(Json::Str(label)) => fault_by_label(label)
                        .ok_or_else(|| format!("unknown fault variant {label:?}"))?,
                    Some(other) => {
                        return Err(format!("field \"fault\": expected a string, got {other:?}"))
                    }
                };
                Ok(JobSpec::Matrix {
                    base_seed: get_u64(&v, "base_seed", CANONICAL_BASE_SEED)?,
                    fault,
                })
            }
            "population" => {
                let size = get_u64(&v, "size", 0)?;
                if size == 0 {
                    return Err("population job: missing or zero \"size\"".into());
                }
                // `shards` sizes an allocation in the worker, so an
                // untrusted body may ask for at most one shard per cell.
                let shards = get_u64(&v, "shards", (DEFAULT_POPULATION_SHARDS as u64).min(size))?;
                if shards == 0 || shards > size {
                    return Err(format!("population job: \"shards\" must be in 1..={size}"));
                }
                Ok(JobSpec::Population {
                    seed: get_u64(&v, "seed", CANONICAL_BASE_SEED)?,
                    size,
                    shards: shards as usize,
                    pace_ms: get_u64(&v, "pace_ms", 0)?,
                })
            }
            other => Err(format!("unknown job kind {other:?}")),
        }
    }

    /// The job's kind label (`matrix` / `population`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Matrix { .. } => "matrix",
            JobSpec::Population { .. } => "population",
        }
    }

    /// Human label: the fault variant, or `population/<size>`.
    pub fn label(&self) -> String {
        match self {
            JobSpec::Matrix { fault, .. } => fault.label().to_string(),
            JobSpec::Population { size, .. } => format!("population/{size}"),
        }
    }

    /// Cells the job will execute.
    pub fn cells(&self) -> u64 {
        match self {
            JobSpec::Matrix { base_seed, fault } => MatrixSpec {
                base_seed: *base_seed,
                fault: *fault,
            }
            .scenarios()
            .len() as u64,
            JobSpec::Population { size, .. } => *size,
        }
    }

    /// The spec echoed back as JSON (for `GET /jobs/:id`).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("kind", Json::Str(self.kind().into()));
        match self {
            JobSpec::Matrix { base_seed, fault } => {
                obj.set("base_seed", Json::U64(*base_seed));
                obj.set("fault", Json::Str(fault.label().into()));
            }
            JobSpec::Population {
                seed,
                size,
                shards,
                pace_ms,
            } => {
                obj.set("seed", Json::U64(*seed));
                obj.set("size", Json::U64(*size));
                obj.set("shards", Json::U64(*shards as u64));
                obj.set("pace_ms", Json::U64(*pace_ms));
            }
        }
        obj
    }

    /// Execute the job on `runner`, streaming progress into `observer`,
    /// and build its canonical manifest.
    pub fn execute(&self, runner: &FleetRunner, observer: &dyn FleetObserver) -> RunManifest {
        match self {
            JobSpec::Matrix { base_seed, fault } => {
                let spec = MatrixSpec {
                    base_seed: *base_seed,
                    fault: *fault,
                };
                let scenarios = spec.scenarios();
                let run = runner.run_observed(&scenarios, observer);
                RunManifest::from_fleet(&spec, &scenarios, &run.report)
            }
            JobSpec::Population {
                seed, size, shards, ..
            } => {
                let spec = PopulationSpec::paper_default(*seed, *size);
                let run = runner.run_population_observed(&spec, *shards, observer);
                RunManifest::from_population(&spec, &run.report)
            }
        }
    }
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for the worker.
    Queued,
    /// Executing on the pool.
    Running,
    /// Finished; manifest stored.
    Done,
}

impl JobStatus {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
        }
    }
}

/// One job's full daemon-side record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Daemon-assigned id (submission order, starting at 1).
    pub id: u64,
    /// What was asked for.
    pub spec: JobSpec,
    /// Where it is in its lifecycle.
    pub status: JobStatus,
    /// Virtual tick at submission.
    pub submitted_tick: u64,
    /// Virtual tick at completion.
    pub completed_tick: Option<u64>,
    /// The canonical result (once done).
    pub manifest: Option<RunManifest>,
}

impl JobRecord {
    /// The `GET /jobs/:id` body.
    pub fn status_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("id", Json::U64(self.id));
        obj.set("status", Json::Str(self.status.label().into()));
        obj.set("spec", self.spec.to_json());
        obj.set("submitted_tick", Json::U64(self.submitted_tick));
        obj.set(
            "completed_tick",
            match self.completed_tick {
                Some(t) => Json::U64(t),
                None => Json::Null,
            },
        );
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_bodies_parse_with_defaults() {
        let job = JobSpec::parse(r#"{"kind":"matrix"}"#).unwrap();
        assert_eq!(
            job,
            JobSpec::Matrix {
                base_seed: CANONICAL_BASE_SEED,
                fault: FaultVariant::Clean
            }
        );
        assert_eq!(job.cells(), 66);
        let job =
            JobSpec::parse(r#"{"kind":"matrix","fault":"lossy-uplink","base_seed":9}"#).unwrap();
        assert_eq!(job.label(), "lossy-uplink");
        assert_eq!(job.kind(), "matrix");
    }

    #[test]
    fn population_bodies_parse_and_validate() {
        let job = JobSpec::parse(r#"{"kind":"population","size":500}"#).unwrap();
        assert_eq!(
            job,
            JobSpec::Population {
                seed: CANONICAL_BASE_SEED,
                size: 500,
                shards: DEFAULT_POPULATION_SHARDS,
                pace_ms: 0
            }
        );
        assert!(JobSpec::parse(r#"{"kind":"population"}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind":"population","size":5,"shards":0}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind":"matrix","fault":"no-such"}"#).is_err());
        assert!(JobSpec::parse(r#"{"kind":"mystery"}"#).is_err());
        assert!(JobSpec::parse("not json").is_err());
    }

    #[test]
    fn population_shards_are_bounded_by_size() {
        // A shard count from the request body must not size an
        // allocation beyond the population itself.
        let huge = r#"{"kind":"population","size":1,"shards":1000000000000}"#;
        assert!(JobSpec::parse(huge).is_err());
        assert!(JobSpec::parse(r#"{"kind":"population","size":4,"shards":5}"#).is_err());
        let exact = JobSpec::parse(r#"{"kind":"population","size":4,"shards":4}"#).unwrap();
        assert!(matches!(exact, JobSpec::Population { shards: 4, .. }));
        // The default shard count never exceeds a small population.
        let small = JobSpec::parse(r#"{"kind":"population","size":3}"#).unwrap();
        assert!(matches!(small, JobSpec::Population { shards: 3, .. }));
    }

    #[test]
    fn spec_roundtrips_through_status_json() {
        let spec = JobSpec::parse(r#"{"kind":"population","size":64,"pace_ms":3}"#).unwrap();
        let record = JobRecord {
            id: 2,
            spec,
            status: JobStatus::Queued,
            submitted_tick: 0,
            completed_tick: None,
            manifest: None,
        };
        let body = record.status_json().canonical();
        let reparsed =
            JobSpec::parse(&Json::parse(&body).unwrap().get("spec").unwrap().canonical()).unwrap();
        assert_eq!(reparsed, spec);
    }
}
