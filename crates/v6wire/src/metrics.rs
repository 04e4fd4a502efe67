//! Named counters shared by every instrumented component.
//!
//! The fleet runner aggregates per-node statistics from very different
//! devices — NAT64 translators, DHCP-snooping switches, caching DNS
//! resolvers — so the common currency is deliberately minimal: a sorted
//! map from counter name to `u64`. Determinism matters more than speed
//! here (snapshots are compared byte-for-byte across fleet runs), hence
//! the `BTreeMap`: iteration order, `Eq`, and the rendered form are all
//! independent of insertion order.
//!
//! Components expose a `metrics()` (or `device_metrics()`) method
//! returning one of these; composite devices fold child snapshots in
//! under a dotted prefix via [`Metrics::merge_namespaced`], e.g. the 5G
//! gateway reports its translator as `nat64.outbound`.

use std::collections::BTreeMap;
use std::fmt;

/// An ordered bag of named `u64` counters.
///
/// Missing counters read as zero, so callers never need to pre-register
/// names. Two snapshots are equal iff they hold the same non-zero
/// counters with the same values (zero-valued counters are never
/// stored).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
}

impl Metrics {
    /// An empty snapshot.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `delta` to counter `name` (creating it if new).
    ///
    /// Adding zero is a no-op and does not materialise the counter, so
    /// `m.add("drops", self.drops)` is safe to call unconditionally.
    pub fn add(&mut self, name: &str, delta: u64) {
        if delta > 0 {
            *self.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Current value of counter `name` (zero if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// True when no counter has ever been incremented.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Number of distinct (non-zero) counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Iterate counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Fold `child` in under `prefix`, so its counter `x` appears here
    /// as `prefix.x`. Existing counters with the same name accumulate.
    pub fn merge_namespaced(&mut self, prefix: &str, child: &Metrics) {
        for (name, value) in child.iter() {
            self.add(&format!("{prefix}.{name}"), value);
        }
    }

    /// Fold `other` in under the same names, accumulating counters that
    /// exist on both sides. This is how run manifests sum one node's
    /// device counters across every scenario of a fleet.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }

    /// Sum of all counters matching `prefix.` plus the bare `prefix`
    /// counter itself — handy for invariant checks across namespaces.
    pub fn sum_under(&self, prefix: &str) -> u64 {
        let dotted = format!("{prefix}.");
        self.counters
            .iter()
            .filter(|(k, _)| *k == prefix || k.starts_with(&dotted))
            .map(|(_, &v)| v)
            .sum()
    }
}

impl fmt::Display for Metrics {
    /// One `name=value` pair per line, in name order — the stable form
    /// used by golden tests and fleet-report comparison.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.iter() {
            writeln!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

impl<'a> FromIterator<(&'a str, u64)> for Metrics {
    fn from_iter<T: IntoIterator<Item = (&'a str, u64)>>(iter: T) -> Metrics {
        let mut m = Metrics::new();
        for (name, value) in iter {
            m.add(name, value);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_adds_do_not_materialise_counters() {
        let mut m = Metrics::new();
        m.add("drops", 0);
        assert!(m.is_empty());
        assert_eq!(m.get("drops"), 0);
        m.add("drops", 2);
        m.add("drops", 3);
        assert_eq!(m.get("drops"), 5);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a: Metrics = [("tx", 4u64), ("rx", 7)].into_iter().collect();
        let b: Metrics = [("rx", 7u64), ("tx", 4)].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "rx=7\ntx=4\n");
    }

    #[test]
    fn namespacing_and_sums() {
        let child: Metrics = [("outbound", 3u64), ("dropped", 1)].into_iter().collect();
        let mut parent = Metrics::new();
        parent.add("no_route_drops", 2);
        parent.merge_namespaced("nat64", &child);
        assert_eq!(parent.get("nat64.outbound"), 3);
        assert_eq!(parent.sum_under("nat64"), 4);
        assert_eq!(parent.sum_under("no_route_drops"), 2);
    }
}
