//! # v6labd — the long-lived IPv6-only lab daemon
//!
//! The paper's testbed is operated as a *service*: an always-on
//! IPv6-only lab that clients join and operators watch. This crate is
//! that production pivot for the reproduction — a daemon that owns a
//! [`v6fleet::FleetRunner`] worker pool and exposes a small hand-rolled
//! HTTP/1.1 JSON API over `std::net::TcpListener` (the workspace builds
//! offline; the wire subset comes from [`v6portal::http`]).
//!
//! * [`jobs`] — submit scenario-matrix or population jobs
//!   (`POST /jobs`); results are canonical [`v6report::RunManifest`]s,
//!   byte-identical to the batch tooling's output for the same spec.
//! * [`state`] — the streaming side: the worker publishes per-scenario
//!   results and per-shard census sketches into a live accumulator
//!   *while a job runs*, and `GET /metrics` renders it under the same
//!   lock without stopping the stream.
//! * [`cron`] / [`scheduler`] / [`clock`] — recurring sweeps on a
//!   virtual tick clock (a tick per completed job), so schedules are
//!   deterministic and testable to the byte.
//! * [`detector`] — counter-delta watching between runs: `fault.*`
//!   drop surges, `dns.timeouts`, portal-census regressions vs the
//!   committed goldens, deduplicated into structured [`detector::Incident`]
//!   records at `GET /incidents`.
//! * [`soak`] — a scripted daemon lifetime under the virtual clock,
//!   summarised as the committed `soak` manifest
//!   (`reports/soak_smoke.json`).
//! * [`portal`] — the portal-scoring HTTP path (`GET /portal`) that
//!   `perfbench --workload labd` drives with open-loop load.

#![warn(missing_docs)]

pub mod clock;
pub mod cron;
pub mod detector;
pub mod jobs;
pub mod portal;
pub mod scheduler;
pub mod server;
pub mod soak;
pub mod state;

pub use clock::LabClock;
pub use cron::CronSpec;
pub use detector::{Detector, Incident, Severity};
pub use jobs::{JobRecord, JobSpec, JobStatus};
pub use scheduler::{CronEntry, Scheduler};
pub use server::{serve, LabServer, ServerConfig};
pub use soak::{run_soak, smoke_manifest, SoakConfig};
pub use state::{LabState, LiveMetrics, LiveObserver};
