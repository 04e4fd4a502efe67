//! Structural manifest diffing.
//!
//! A committed manifest holds only what the simulated network did:
//! census counts, per-cell verdicts, config digests, conservation
//! totals, engine and device counters, the paper's experiment rows. So
//! every drifted field is a behaviour change and every drift fails the
//! gate; a report passes exactly when it [is clean](DriftReport::is_clean).
//! How the engine allocated or what it traced never reaches a manifest,
//! and wall-clock figures belong to `perfbench`.

use crate::canon::Json;

/// One drifted field.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Dotted path of the field (array elements as `[i]`).
    pub path: String,
    /// Committed value (`None` when the field is new).
    pub before: Option<Json>,
    /// Fresh value (`None` when the field vanished).
    pub after: Option<Json>,
}

/// Everything [`diff_manifests`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftReport {
    /// Every drifted field, in path order of discovery (committed-side
    /// key order, i.e. sorted).
    pub drifts: Vec<Drift>,
}

impl DriftReport {
    /// True when nothing drifted — the only way to pass the gate.
    pub fn is_clean(&self) -> bool {
        self.drifts.is_empty()
    }

    /// Human-readable drift listing, one line per field. Stable ordering
    /// (derived from sorted object keys), so CI logs diff cleanly too.
    pub fn render(&self) -> String {
        let show = |v: &Option<Json>| match v {
            None => "<absent>".to_string(),
            Some(v) => v.canonical().lines().next().unwrap_or("").to_string(),
        };
        self.drifts
            .iter()
            .map(|d| {
                format!(
                    "DRIFT {}: {} -> {}\n",
                    d.path,
                    show(&d.before),
                    show(&d.after)
                )
            })
            .collect()
    }
}

/// Structurally diff `before` (committed) against `after` (fresh).
pub fn diff_manifests(before: &Json, after: &Json) -> DriftReport {
    let mut report = DriftReport::default();
    walk("", before, after, &mut report);
    report
}

fn record(path: &str, before: Option<&Json>, after: Option<&Json>, out: &mut DriftReport) {
    out.drifts.push(Drift {
        path: path.to_string(),
        before: before.cloned(),
        after: after.cloned(),
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
        assert!(diff_manifests(&a, &a).is_clean());
    }

    #[test]
    fn census_mutation_drifts() {
        let r = diff_manifests(&doc(40, 500, false), &doc(41, 500, false));
        assert_eq!(r.drifts.len(), 1);
        assert_eq!(r.drifts[0].path, "census.fleet.accurate_v6only");
        assert!(!r.is_clean());
        assert_eq!(r.render(), "DRIFT census.fleet.accurate_v6only: 40 -> 41\n");
    }

    #[test]
    fn verdict_mutation_drifts() {
        let r = diff_manifests(&doc(40, 500, false), &doc(40, 500, true));
        assert_eq!(r.drifts[0].path, "verdicts[0].has_v4");
        assert!(!r.is_clean());
    }

    #[test]
    fn pool_counter_drift_gates_like_any_other_field() {
        // Manifests no longer carry `metrics.pool`, but a document that
        // does gets no special treatment: a 1% move is a drift.
        let r = diff_manifests(&doc(40, 500, false), &doc(40, 505, false));
        assert_eq!(r.drifts.len(), 1);
        assert_eq!(r.drifts[0].path, "metrics.pool.allocated");
        assert!(!r.is_clean());
        assert!(r.render().starts_with("DRIFT metrics.pool.allocated"));
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
        assert!(!r.is_clean());
    }
}
