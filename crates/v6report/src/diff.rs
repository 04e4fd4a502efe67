//! Structural manifest diffing with a drift taxonomy.
//!
//! Drift between a fresh run and a committed manifest falls in two
//! classes:
//!
//! * **Behavioural** — the run *did something different*: census
//!   counts, per-cell verdicts, conservation totals, config digests,
//!   engine/device counters. Always fatal: the paper's Fig. 4/5–11
//!   behaviour is exactly these fields.
//! * **Informational** — bookkeeping that can legitimately move without
//!   the behaviour changing: frame-pool and trace-cap counters
//!   (`metrics.pool.*`, `metrics.trace.*`). Reported, but gated only by
//!   a configurable relative tolerance, zero by default since the
//!   counters are deterministic.
//!
//! Manifests carry no wall-clock figure; `perfbench` measures
//! performance.
//!
//! Classification is by field path, so the taxonomy lives in one place
//! ([`classify`]) and the gate (`v6report check`) never needs schema
//! knowledge beyond it.

use crate::canon::Json;
use std::fmt;

/// Drift taxonomy — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftClass {
    /// The run behaved differently. Always fatal.
    Behavioural,
    /// Deterministic bookkeeping moved (pool/trace counters). Fatal
    /// beyond [`DiffConfig::counter_tolerance`] (zero by default).
    Informational,
}

impl fmt::Display for DriftClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DriftClass::Behavioural => "behavioural",
            DriftClass::Informational => "informational",
        })
    }
}

/// One drifted field.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Dotted path of the field (array elements as `[i]`).
    pub path: String,
    /// Committed value (`None` when the field is new).
    pub before: Option<Json>,
    /// Fresh value (`None` when the field vanished).
    pub after: Option<Json>,
    /// Taxonomy class of the path.
    pub class: DriftClass,
    /// Relative numeric delta `|after-before| / max(|before|, 1)`, when
    /// both sides are numbers.
    pub rel_delta: Option<f64>,
}

/// Tolerance the gate applies to informational drift.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiffConfig {
    /// Allowed relative delta on informational counters. The pool and
    /// trace counters are deterministic, so the default is exact.
    pub counter_tolerance: f64,
}

impl DiffConfig {
    /// Does `d` fail the gate under this tolerance?
    fn is_fatal(&self, d: &Drift) -> bool {
        match d.class {
            DriftClass::Behavioural => true,
            DriftClass::Informational => d
                .rel_delta
                .map(|r| r > self.counter_tolerance)
                .unwrap_or(true),
        }
    }
}

/// Classify a manifest field path.
pub fn classify(path: &str) -> DriftClass {
    if path.starts_with("metrics.pool.") || path.starts_with("metrics.trace.") {
        return DriftClass::Informational;
    }
    DriftClass::Behavioural
}

/// Everything [`diff_manifests`] found, plus the gate verdict logic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftReport {
    /// Every drifted field, in path order of discovery (committed-side
    /// key order, i.e. sorted).
    pub drifts: Vec<Drift>,
}

impl DriftReport {
    /// True when nothing drifted at all.
    pub fn is_clean(&self) -> bool {
        self.drifts.is_empty()
    }

    /// The drifts that fail the gate under `cfg`: every behavioural
    /// drift, plus informational drift beyond the counter tolerance.
    pub fn fatal<'a>(&'a self, cfg: &'a DiffConfig) -> impl Iterator<Item = &'a Drift> {
        self.drifts.iter().filter(move |d| cfg.is_fatal(d))
    }

    /// Does this report fail the gate under `cfg`?
    pub fn gated(&self, cfg: &DiffConfig) -> bool {
        self.fatal(cfg).next().is_some()
    }

    /// Human-readable drift listing, one line per field, fatal drifts
    /// marked. Stable ordering (derived from sorted object keys), so CI
    /// logs diff cleanly too.
    pub fn render(&self, cfg: &DiffConfig) -> String {
        let mut out = String::new();
        for d in &self.drifts {
            let marker = if cfg.is_fatal(d) { "DRIFT" } else { "note " };
            let show = |v: &Option<Json>| match v {
                None => "<absent>".to_string(),
                Some(v) => v.canonical().lines().next().unwrap_or("").to_string(),
            };
            out.push_str(&format!(
                "{marker} [{}] {}: {} -> {}",
                d.class,
                d.path,
                show(&d.before),
                show(&d.after),
            ));
            if let Some(r) = d.rel_delta {
                out.push_str(&format!(" (rel {r:.3})"));
            }
            out.push('\n');
        }
        out
    }
}

/// Structurally diff `before` (committed) against `after` (fresh),
/// classifying each drifted field.
pub fn diff_manifests(before: &Json, after: &Json) -> DriftReport {
    let mut report = DriftReport::default();
    walk("", before, after, &mut report);
    report
}

fn record(path: &str, before: Option<&Json>, after: Option<&Json>, out: &mut DriftReport) {
    let rel_delta = match (
        before.and_then(Json::as_number),
        after.and_then(Json::as_number),
    ) {
        (Some(a), Some(b)) => Some((b - a).abs() / a.abs().max(1.0)),
        _ => None,
    };
    out.drifts.push(Drift {
        path: path.to_string(),
        before: before.cloned(),
        after: after.cloned(),
        class: classify(path),
        rel_delta,
    });
}

fn walk(path: &str, before: &Json, after: &Json, out: &mut DriftReport) {
    match (before, after) {
        (Json::Obj(a), Json::Obj(b)) => {
            let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
            for key in keys {
                let sub = if path.is_empty() {
                    key.to_string()
                } else {
                    format!("{path}.{key}")
                };
                match (a.get(key), b.get(key)) {
                    (Some(x), Some(y)) => walk(&sub, x, y, out),
                    (x, y) => record(&sub, x, y, out),
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            for i in 0..a.len().max(b.len()) {
                let sub = format!("{path}[{i}]");
                match (a.get(i), b.get(i)) {
                    (Some(x), Some(y)) => walk(&sub, x, y, out),
                    (x, y) => record(&sub, x, y, out),
                }
            }
        }
        (x, y) if x == y => {}
        (x, y) => record(path, Some(x), Some(y), out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(census: u64, pool: u64, v4: bool) -> Json {
        Json::parse(&format!(
            r#"{{
                "kind": "fleet-matrix",
                "census": {{ "fleet": {{ "accurate_v6only": {census} }} }},
                "metrics": {{ "pool": {{ "allocated": {pool} }} }},
                "verdicts": [ {{ "cell": "paper/off/macos/seed1", "has_v4": {v4} }} ]
            }}"#
        ))
        .expect("literal parses")
    }

    #[test]
    fn identical_documents_are_clean() {
        let a = doc(40, 500, false);
        let r = diff_manifests(&a, &a);
        assert!(r.is_clean());
        assert!(!r.gated(&DiffConfig::default()));
    }

    #[test]
    fn census_mutation_is_behavioural_and_fatal() {
        let r = diff_manifests(&doc(40, 500, false), &doc(41, 500, false));
        assert_eq!(r.drifts.len(), 1);
        let d = &r.drifts[0];
        assert_eq!(d.path, "census.fleet.accurate_v6only");
        assert_eq!(d.class, DriftClass::Behavioural);
        assert!(
            r.gated(&DiffConfig::default()),
            "behavioural drift always gates"
        );
        // No tolerance forgives behaviour.
        let loose = DiffConfig {
            counter_tolerance: 1e9,
        };
        assert!(r.gated(&loose));
        assert!(r
            .render(&loose)
            .contains("DRIFT [behavioural] census.fleet.accurate_v6only"));
    }

    #[test]
    fn verdict_mutation_is_behavioural() {
        let r = diff_manifests(&doc(40, 500, false), &doc(40, 500, true));
        assert_eq!(r.drifts[0].path, "verdicts[0].has_v4");
        assert_eq!(r.drifts[0].class, DriftClass::Behavioural);
        assert!(r.gated(&DiffConfig::default()));
    }

    #[test]
    fn pool_counters_are_informational_with_exact_default_gate() {
        let r = diff_manifests(&doc(40, 500, false), &doc(40, 505, false));
        assert_eq!(r.drifts[0].class, DriftClass::Informational);
        assert!(
            r.gated(&DiffConfig::default()),
            "default counter tolerance is exact, so any delta still gates"
        );
        let loose = DiffConfig {
            counter_tolerance: 0.05,
        };
        assert!(!r.gated(&loose), "1% delta passes a 5% tolerance");
        assert!(r.render(&loose).starts_with("note "));
    }

    #[test]
    fn added_and_missing_fields_drift() {
        let a = Json::parse(r#"{ "kind": "fleet-matrix", "census": { "fleet": { "a": 1 } } }"#)
            .expect("parses");
        let b = Json::parse(r#"{ "kind": "fleet-matrix", "census": { "fleet": { "b": 1 } } }"#)
            .expect("parses");
        let r = diff_manifests(&a, &b);
        assert_eq!(r.drifts.len(), 2);
        assert!(r.drifts.iter().any(|d| d.before.is_none()));
        assert!(r.drifts.iter().any(|d| d.after.is_none()));
        assert!(r.gated(&DiffConfig::default()));
    }
}
