//! # v6report — canonical run manifests and the CI drift gate
//!
//! The paper's core claim is behavioural: each client class (RFC 8925,
//! dual-stack, IPv4-only, poisoned-DNS-intervened) lands in a specific,
//! reproducible cell of the Fig. 4 outcome matrix. This crate turns
//! every canonical fleet run into a committed artifact CI can gate on:
//!
//! * [`manifest`] — build a [`RunManifest`]: config digests (matrix,
//!   per-cell fault plans), the fleet + per-OS census, one verdict row
//!   per cell keyed by a fault-invariant cell label, fleet-wide metrics
//!   sums with the frame-conservation identity, and a per-cell digest
//!   of the full `MetricsSnapshot`.
//! * [`canon`] — the hand-rolled canonical JSON layer the manifests are
//!   written in: sorted keys, fixed number formatting, no timestamps —
//!   so serial and parallel runs of the same seed are byte-identical.
//! * [`diff`] — the structural differ. A manifest holds only what the
//!   simulated network did, so every drifted field fails the gate.
//!
//! Besides the fleet, population and soak manifests, the paper's own
//! figure, table and ablation rows are a manifest too
//! ([`RunManifest::run_experiments`]), so the rows EXPERIMENTS.md quotes
//! are gated like every other behaviour.
//!
//! The `v6report` binary wires these into the repo workflow:
//! `v6report emit` regenerates the committed `reports/*.json` goldens,
//! `v6report check` re-runs them and fails on drift, and
//! `v6report diff a.json b.json` lists the drift between any two
//! manifests.

#![warn(missing_docs)]

pub mod canon;
pub mod diff;
pub mod manifest;

pub use canon::Json;
pub use diff::{diff_manifests, Drift, DriftReport};
pub use manifest::{
    canonical_population, census_row, fnv1a, MatrixSpec, RunManifest, SoakIncidentRow, SoakJobRow,
    SoakSummary, CANONICAL_BASE_SEED, CANONICAL_POPULATION_SHARDS, CANONICAL_POPULATION_SIZE,
    SCHEMA_VERSION,
};
