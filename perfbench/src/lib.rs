//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Three workloads (see `README.md` in this directory for why each
//! exists, which layer should move which end-to-end metric, and why
//! `BENCHMARK.json` names only the first two):
//!
//! * `census` — sampled-population censuses through
//!   [`v6fleet::FleetRunner::run_population`], on 1 worker and on every
//!   core, in the same invocation;
//! * `matrix` — all five fault-variant 66-cell matrices through
//!   `FleetRunner::run` → `RunManifest::from_fleet` → `canonical()`;
//! * `labd` — an in-process `v6labd` daemon driven open-loop over HTTP.
//!
//! With tracing off each workload reports [`END_TO_END`]; the traced run
//! ([`layers`]) reports [`PER_LAYER`], timed from outside around the
//! crates' public calls. Nothing here changes program code.

pub mod census;
pub mod gates;
pub mod host;
pub mod http;
pub mod labd;
pub mod layers;
pub mod matrix;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics every untraced run reports, with units. What each
/// means per workload is tabulated in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cells_per_s", "1/s"),
    ("cells_per_s_loaded", "1/s"),
    ("request_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The quantile of per-unit rates the end-to-end metrics report (its
/// complement for per-unit times). On a shared host, co-tenant load
/// comes in phases of seconds to minutes that only ever slow a unit
/// down; the fastest percent of a run's many short units measures the
/// program, where the median measures the neighbours too. Medians are
/// reported as detail.
pub const FAST_QUANTILE: f64 = 0.99;

/// A rate at [`FAST_QUANTILE`].
pub fn fast_rate(rates: &stats::Samples) -> f64 {
    rates.quantile(FAST_QUANTILE)
}

/// A per-unit time at the complement of [`FAST_QUANTILE`].
pub fn fast_time(times: &stats::Samples) -> f64 {
    times.quantile(1.0 - FAST_QUANTILE)
}

/// Per-layer metrics every traced run reports, named `<crate>.<metric>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("v6testbed.build_us", "us"),
    ("v6testbed.recycle_us", "us"),
    ("v6testbed.fault_install_us", "us"),
    ("v6testbed.host_install_us", "us"),
    ("v6testbed.boot_us", "us"),
    ("v6testbed.browse_sc24_us", "us"),
    ("v6testbed.browse_ip6me_us", "us"),
    ("v6testbed.observe_us", "us"),
    ("v6testbed.cell_p50_us", "us"),
    ("v6testbed.cell_tail_us", "us"),
    ("v6sim.events_per_cell", "count"),
    ("v6sim.boot_events_per_cell", "count"),
    ("v6sim.browse_events_per_cell", "count"),
    ("v6sim.boot_ns_per_event", "ns"),
    ("v6sim.browse_ns_per_event", "ns"),
    ("v6sim.frames_delivered_per_cell", "count"),
    ("v6sim.timers_per_cell", "count"),
    ("v6sim.queue_high_water", "count"),
    ("v6sim.flood_useful_ratio", "ratio"),
    ("v6sim.pool_fresh_allocs", "count"),
    ("v6sim.metrics_snapshot_us", "us"),
    ("v6wire.view_parse_ns", "ns"),
    ("v6wire.frames_per_cell", "count"),
    ("v6wire.codec_share", "ratio"),
    ("v6dns.view_parse_ns", "ns"),
    ("v6dns.msgs_per_cell", "count"),
    ("v6host.dns_timeouts_per_cell", "count"),
    ("v6host.dns_retransmits_per_cell", "count"),
    ("v6xlat.nat64_translations_per_cell", "count"),
    ("v6xlat.nat64_dropped_no_binding_per_cell", "count"),
    ("v6fleet.sample_ns", "ns"),
    ("v6fleet.fold_ns", "ns"),
    ("v6fleet.aggregate_us", "us"),
    ("v6report.from_fleet_us", "us"),
    ("v6report.canonical_us", "us"),
    ("v6report.manifest_bytes", "bytes"),
    ("v6labd.portal_handle_us", "us"),
    ("v6portal.http_parse_ns", "ns"),
    ("v6labd.connect_us", "us"),
    ("v6labd.ttfb_us", "us"),
    ("v6labd.metrics_json_us", "us"),
    ("v6labd.job_queue_wait_ms", "ms"),
    ("v6labd.job_run_ms", "ms"),
    ("bench.generator_lag_us", "us"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.traced_cells", "count"),
];

/// Every workload, in the order `--smoke` runs them.
pub const WORKLOADS: &[&str] = &["census", "matrix", "labd"];

/// The workloads `BENCHMARK.json` names. `labd` stays runnable but is
/// left out: on a shared 2-core host its request and job timings are
/// set by the daemon's 1 ms accept-loop poll and the host's timer
/// latency, and spread by 10–22% between runs (see `README.md`).
pub const BENCHMARKED: &[&str] = &["census", "matrix"];

/// One run's settings, straight from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Tiny sizes for the smoke test: every code path, little work.
    pub tiny: bool,
    /// When the process started, for the first set-up's wall time.
    pub started: Instant,
}

impl Config {
    /// Worker threads for `xN` runs (every core, or 2 in tiny mode so
    /// the parallel path runs even on one core).
    pub fn workers(&self) -> usize {
        if self.tiny {
            host::nproc().max(2)
        } else {
            host::nproc()
        }
    }
}

/// A detail value: number or text.
#[derive(Debug, Clone)]
pub enum Detail {
    /// A measured or counted number.
    Num(f64),
    /// A label, digest or provenance string.
    Text(String),
}

/// What a workload hands back: the metric values, the operations
/// attempted and the gate failures among them, and detail rows (the
/// named metrics, sample counts, chosen percentiles) printed
/// before the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus gate checks).
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Detail rows, in insertion order.
    pub detail: Vec<(String, Detail)>,
}

impl Outcome {
    /// Count one operation and record its failure, if any.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    /// Set a reported metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Add a numeric detail row.
    pub fn num(&mut self, name: impl Into<String>, value: f64) {
        self.detail.push((name.into(), Detail::Num(value)));
    }

    /// Add a text detail row.
    pub fn text(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.detail.push((name.into(), Detail::Text(value.into())));
    }

    /// A timing's median, chosen tail percentile and sample count, as
    /// detail rows under `name`.
    pub fn timing(&mut self, name: &str, s: &stats::Samples, cap: f64) {
        let t = s.tail(cap);
        self.num(format!("{name}.p50"), s.median());
        self.num(format!("{name}.tail_pct"), t.pct * 100.0);
        self.num(format!("{name}.tail"), t.value);
        self.num(format!("{name}.tail_beyond"), t.beyond as f64);
        self.num(format!("{name}.samples"), s.len() as f64);
    }
}

/// Run one workload.
pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    let mut out = match (workload, cfg.trace) {
        ("census", false) => census::run(cfg),
        ("matrix", false) => matrix::run(cfg),
        ("labd", false) => labd::run(cfg),
        ("census" | "matrix" | "labd", true) => layers::run(workload, cfg),
        (other, _) => return Err(format!("unknown workload {other:?} (census|matrix|labd)")),
    }?;
    out.text("workload", workload);
    Ok(out)
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit Rust's shortest round-trip form keeps
/// (non-finite values, which no metric should produce, become null).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The detail rows as one JSON object.
pub fn detail_json(out: &Outcome) -> String {
    let rows: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| {
            let v = match v {
                Detail::Num(n) => json_num(*n),
                Detail::Text(t) => json_str(t),
            };
            format!("{}:{v}", json_str(k))
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `table`, each with its unit.
pub fn result_json(out: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failures.is_empty() && out.attempted > 0,
        out.attempted.max(1),
        out.failures.len(),
        metrics.join(",")
    )
}
