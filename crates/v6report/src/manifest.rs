//! Building [`RunManifest`]s — the canonical, committed description of
//! one fleet, population or soak run, or of the paper's experiment rows.
//!
//! A manifest is the machine-checkable statement "the paper's behaviour
//! held on this run": which configuration was exercised (config digests
//! down to the per-cell fault plan), what every client did (per-cell
//! verdict rows keyed by a fault-invariant cell label), how the
//! population counted (fleet census plus the per-OS breakdown), and
//! what the engine counted while doing it (fleet-wide metrics sums, a
//! per-cell digest of the full `MetricsSnapshot`, and the frame
//! conservation identity). Nothing in it depends on wall-clock time or
//! thread count, so the canonical rendering of two runs of the same
//! seed is byte-identical — the property the CI drift
//! gate stands on.

use crate::canon::Json;
use v6fleet::{
    FleetCensus, FleetReport, FleetRunner, LatencySketch, PopulationReport, PopulationSpec,
    SketchPercentiles,
};
use v6testbed::scenario::{FaultVariant, PoisonVariant, ResolutionFailure, TopologyVariant};
use v6testbed::Scenario;

/// The base seed every committed matrix manifest is generated from —
/// the same seed `examples/fleet_census.rs` sweeps, so the goldens
/// describe the run an operator actually sees.
pub const CANONICAL_BASE_SEED: u64 = 0x5c24;

/// Manifest schema version, bumped on any field addition/rename so a
/// differ never silently compares across schemas. Version 2 added the
/// classified DNS resolution-failure breakdown (`dns_failures`) to
/// every census row.
pub const SCHEMA_VERSION: u64 = 2;

/// Cells in the committed sampled-population golden
/// (`reports/population_100k.json`). Big enough that the census mix is
/// statistically meaningful, small enough for the CI report-gate; the
/// full 1M census lives behind `just population`.
pub const CANONICAL_POPULATION_SIZE: u64 = 100_000;

/// Shard count the canonical population manifest is generated with.
/// The report is provably shard-invariant (see `v6fleet`'s population
/// tests) — this only shapes work-queue granularity.
pub const CANONICAL_POPULATION_SHARDS: usize = 8;

/// The canonical sampled population the committed golden describes:
/// the paper-default mix at [`CANONICAL_BASE_SEED`].
pub fn canonical_population() -> PopulationSpec {
    PopulationSpec::paper_default(CANONICAL_BASE_SEED, CANONICAL_POPULATION_SIZE)
}

/// FNV-1a over arbitrary text — the per-cell metrics digest, also used
/// by the lab daemon to fingerprint stored manifests in soak summaries.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hex(d: u64) -> Json {
    Json::Str(format!("{d:016x}"))
}

/// Which canonical sweep a matrix manifest describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixSpec {
    /// Base seed the matrix was derived from.
    pub base_seed: u64,
    /// The fault regime every cell ran under.
    pub fault: FaultVariant,
}

impl MatrixSpec {
    /// The canonical spec for `fault` (seed [`CANONICAL_BASE_SEED`]).
    pub fn canonical(fault: FaultVariant) -> MatrixSpec {
        MatrixSpec {
            base_seed: CANONICAL_BASE_SEED,
            fault,
        }
    }

    /// File stem the manifest is committed under (`matrix_clean`,
    /// `matrix_dns64-outage`, …).
    pub fn file_stem(&self) -> String {
        format!("matrix_{}", self.fault.label())
    }

    /// The scenario list this spec enumerates.
    pub fn scenarios(&self) -> Vec<Scenario> {
        Scenario::matrix_with_fault(self.base_seed, self.fault)
    }
}

/// One completed job in a soak summary — what the lab daemon ran and
/// the digest of the manifest it stored for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakJobRow {
    /// Daemon-assigned job id (submission order).
    pub id: u64,
    /// Job kind (`matrix` or `population`).
    pub kind: String,
    /// Human label (fault variant, or `population/<size>`).
    pub label: String,
    /// Cells the job executed.
    pub cells: u64,
    /// FNV-1a digest of the job's canonical manifest bytes.
    pub manifest_digest: u64,
}

/// One (deduplicated) incident in a soak summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakIncidentRow {
    /// `warning` or `critical`.
    pub severity: String,
    /// Manifest field path whose delta tripped the detector.
    pub field: String,
    /// Human-readable explanation with the observed delta.
    pub detail: String,
    /// Virtual tick of the first occurrence.
    pub first_seen_tick: u64,
    /// How many times the same incident recurred (dedup counter).
    pub count: u64,
}

/// Everything a `soak` manifest describes: the jobs a lab-daemon soak
/// executed under the virtual clock, the incidents its detector raised,
/// and the merged virtual-time latency sketch across all job cells.
/// All of it is deterministic — wall-clock service figures belong to
/// `perfbench --workload labd`, not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakSummary {
    /// Base seed the soak's jobs were derived from.
    pub base_seed: u64,
    /// Virtual ticks the scheduler advanced through.
    pub ticks: u64,
    /// Completed jobs, in execution order.
    pub jobs: Vec<SoakJobRow>,
    /// Deduplicated incidents, in first-seen order.
    pub incidents: Vec<SoakIncidentRow>,
    /// Merged per-cell completion-time sketch (virtual micros).
    pub latency: LatencySketch,
}

/// A canonical run manifest: a [`Json`] tree that only ever contains
/// deterministic data, with a byte-stable rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest(Json);

impl RunManifest {
    /// Run `spec`'s matrix on `threads` workers and build its manifest.
    /// Thread count affects wall-clock only; the manifest is identical
    /// for any value (asserted by the stability tests).
    pub fn run_matrix(spec: &MatrixSpec, threads: usize) -> RunManifest {
        let scenarios = spec.scenarios();
        let run = FleetRunner::new(threads).run(&scenarios);
        RunManifest::from_fleet(spec, &scenarios, &run.report)
    }

    /// Build the manifest for an already-executed fleet over `spec`'s
    /// scenario list.
    pub fn from_fleet(
        spec: &MatrixSpec,
        scenarios: &[Scenario],
        report: &FleetReport,
    ) -> RunManifest {
        assert!(
            report.results.iter().map(|r| &r.scenario).eq(scenarios),
            "one result per scenario, in order"
        );
        let mut root = Json::obj();
        root.set("schema", Json::U64(SCHEMA_VERSION));
        root.set("kind", Json::Str("fleet-matrix".into()));
        root.set("config", config_section(spec, scenarios));
        root.set("census", census_section(report));
        root.set("verdicts", verdict_rows(report));
        root.set("metrics", metrics_section(report));
        root.set("timing", timing_section(report));
        RunManifest(root)
    }

    /// Run a population census on `threads` workers and build its
    /// manifest. Thread and shard counts affect wall-clock only; the
    /// manifest is byte-identical for any values (asserted by the
    /// stability tests).
    pub fn run_population(spec: &PopulationSpec, threads: usize) -> RunManifest {
        let run = FleetRunner::new(threads).run_population(spec, CANONICAL_POPULATION_SHARDS);
        RunManifest::from_population(spec, &run.report)
    }

    /// Build the manifest for an already-executed population census.
    pub fn from_population(spec: &PopulationSpec, report: &PopulationReport) -> RunManifest {
        assert_eq!(
            spec.digest(),
            report.spec_digest,
            "report must come from this spec"
        );
        let mut root = Json::obj();
        root.set("schema", Json::U64(SCHEMA_VERSION));
        root.set("kind", Json::Str("population".into()));
        root.set("config", population_config_section(spec));
        root.set("census", population_census_section(report));
        root.set("fault_mix", fault_mix_section(report));
        root.set("sketch", sketch_section(report));
        root.set("report_digest", hex(report.digest()));
        RunManifest(root)
    }

    /// Build a `soak` manifest from a lab-daemon soak summary. Every
    /// field is a pure function of the virtual clock and the job seeds,
    /// so the committed `reports/soak_smoke.json` golden is exact.
    pub fn from_soak(summary: &SoakSummary) -> RunManifest {
        let mut config = Json::obj();
        config.set("base_seed", Json::U64(summary.base_seed));
        config.set("ticks", Json::U64(summary.ticks));
        config.set("jobs", Json::U64(summary.jobs.len() as u64));

        let jobs = summary
            .jobs
            .iter()
            .map(|j| {
                let mut row = Json::obj();
                row.set("id", Json::U64(j.id));
                row.set("kind", Json::Str(j.kind.clone()));
                row.set("label", Json::Str(j.label.clone()));
                row.set("cells", Json::U64(j.cells));
                row.set("manifest_digest", hex(j.manifest_digest));
                row
            })
            .collect();

        let incidents = summary
            .incidents
            .iter()
            .map(|i| {
                let mut row = Json::obj();
                row.set("severity", Json::Str(i.severity.clone()));
                row.set("field", Json::Str(i.field.clone()));
                row.set("detail", Json::Str(i.detail.clone()));
                row.set("first_seen_tick", Json::U64(i.first_seen_tick));
                row.set("count", Json::U64(i.count));
                row
            })
            .collect();

        let pct = summary.latency.percentiles();
        let mut latency = Json::obj();
        latency.set("count", Json::U64(summary.latency.count));
        latency.set("min", Json::U64(summary.latency.min));
        latency.set("max", Json::U64(summary.latency.max));
        latency.set("p50", Json::U64(pct.p50));
        latency.set("p90", Json::U64(pct.p90));
        latency.set("p99", Json::U64(pct.p99));
        latency.set("digest", hex(summary.latency.digest()));

        let mut root = Json::obj();
        root.set("schema", Json::U64(SCHEMA_VERSION));
        root.set("kind", Json::Str("soak".into()));
        root.set("config", config);
        root.set("jobs", Json::Arr(jobs));
        root.set("incidents", Json::Arr(incidents));
        root.set("latency", latency);
        RunManifest(root)
    }

    /// Run every paper experiment ([`v6testbed::experiments::paper_rows`])
    /// and build the `paper-experiments` manifest: one `{id, row}` entry
    /// per rendered row, in print order. The rows are simulated
    /// quantities only, so the committed `reports/experiments.json` is
    /// exact.
    pub fn run_experiments() -> RunManifest {
        let rows = v6testbed::experiments::paper_rows()
            .into_iter()
            .map(|(id, text)| {
                let mut row = Json::obj();
                row.set("id", Json::Str(id.into()));
                row.set("row", Json::Str(text));
                row
            })
            .collect();
        let mut root = Json::obj();
        root.set("schema", Json::U64(SCHEMA_VERSION));
        root.set("kind", Json::Str("paper-experiments".into()));
        root.set("rows", Json::Arr(rows));
        RunManifest(root)
    }

    /// Wrap an already-parsed manifest document.
    pub fn from_json(v: Json) -> RunManifest {
        RunManifest(v)
    }

    /// The underlying JSON tree.
    pub fn json(&self) -> &Json {
        &self.0
    }

    /// Canonical file form: byte-stable, newline-terminated.
    pub fn canonical(&self) -> String {
        let mut text = self.0.canonical();
        text.push('\n');
        text
    }
}

fn config_section(spec: &MatrixSpec, scenarios: &[Scenario]) -> Json {
    // Fold the per-cell digests (which each cover topology, poison, OS,
    // seed, and the cell's resolved fault plan) into one matrix digest,
    // and the per-cell plan digests into one plan digest. XOR with a
    // position-dependent rotation keeps both order-sensitive.
    let mut matrix_digest: u64 = 0;
    let mut plan_digest: u64 = 0;
    for (i, s) in scenarios.iter().enumerate() {
        matrix_digest ^= s.digest().rotate_left((i % 63) as u32);
        plan_digest ^= s.fault.plan(s.seed).digest().rotate_left((i % 63) as u32);
    }

    let mut fault = Json::obj();
    fault.set("variant", Json::Str(spec.fault.label().into()));
    fault.set("plan_digest", hex(plan_digest));
    fault.set(
        "nat64_binding_cap",
        match spec.fault.nat64_binding_cap() {
            Some(cap) => Json::U64(cap as u64),
            None => Json::Null,
        },
    );

    let mut config = Json::obj();
    config.set("base_seed", Json::U64(spec.base_seed));
    config.set("cells", Json::U64(scenarios.len() as u64));
    config.set("matrix_digest", hex(matrix_digest));
    config.set("fault", fault);
    config.set(
        "topology_variants",
        Json::Arr(
            TopologyVariant::ALL
                .iter()
                .map(|t| Json::Str(t.label().into()))
                .collect(),
        ),
    );
    config.set(
        "poison_variants",
        Json::Arr(
            PoisonVariant::ALL
                .iter()
                .map(|p| Json::Str(p.label().into()))
                .collect(),
        ),
    );
    config
}

/// One census row as canonical JSON: every [`FleetCensus`] counter,
/// with the DNS failures keyed by [`ResolutionFailure::label`].
pub fn census_row(c: &FleetCensus) -> Json {
    let mut row = Json::obj();
    row.set("associated", Json::U64(c.associated as u64));
    row.set("naive_v6only", Json::U64(c.naive_v6only as u64));
    row.set("accurate_v6only", Json::U64(c.accurate_v6only as u64));
    row.set("with_v4_path", Json::U64(c.with_v4_path as u64));
    row.set("rfc8925_engaged", Json::U64(c.rfc8925_engaged as u64));
    row.set("intervened", Json::U64(c.intervened as u64));
    row.set("degraded", Json::U64(c.degraded as u64));
    let mut failures = Json::obj();
    for f in ResolutionFailure::ALL {
        failures.set(f.label(), Json::U64(c.dns_failures[f.index()] as u64));
    }
    row.set("dns_failures", failures);
    row
}

fn census_section(report: &FleetReport) -> Json {
    let mut by_os = Json::obj();
    for (os, row) in report.census_by_os() {
        by_os.set(os, census_row(&row));
    }
    let mut census = Json::obj();
    census.set("fleet", census_row(&report.census));
    census.set("by_os", by_os);
    census
}

fn verdict_rows(report: &FleetReport) -> Json {
    let rows = report
        .results
        .iter()
        .map(|r| {
            let mut row = Json::obj();
            row.set("cell", Json::Str(r.scenario.cell_label()));
            row.set("seed", Json::U64(r.scenario.seed));
            row.set("rfc8925_engaged", Json::Bool(r.verdict.rfc8925_engaged));
            row.set("has_v4", Json::Bool(r.verdict.has_v4));
            row.set("sc24", Json::Str(r.verdict.sc24.label().into()));
            row.set("ip6me", Json::Str(r.verdict.ip6me.label().into()));
            row.set("intervened", Json::Bool(r.verdict.intervened));
            row.set("naive_counted", Json::Bool(r.verdict.naive_counted));
            row.set("accurate_counted", Json::Bool(r.verdict.accurate_counted));
            row.set("degraded", Json::Bool(r.verdict.degraded));
            row.set("completed_us", Json::U64(r.verdict.completed_us));
            row.set("events", Json::U64(r.verdict.events));
            // One digest over the rendered MetricsSnapshot — every
            // engine, fault, and per-node counter of this cell. Any
            // counter drift anywhere moves this field.
            row.set("metrics_digest", hex(fnv1a(&r.metrics.to_string())));
            row
        })
        .collect();
    Json::Arr(rows)
}

fn metrics_section(report: &FleetReport) -> Json {
    let totals = report.metrics_totals();

    let mut engine = Json::obj();
    engine.set(
        "events_processed",
        Json::U64(totals.engine.events_processed),
    );
    engine.set(
        "frames_delivered",
        Json::U64(totals.engine.frames_delivered),
    );
    engine.set(
        "frames_forwarded",
        Json::U64(totals.engine.frames_forwarded),
    );
    engine.set(
        "frames_dropped_unlinked",
        Json::U64(totals.engine.frames_dropped_unlinked),
    );
    engine.set("timers_fired", Json::U64(totals.engine.timers_fired));
    engine.set(
        "queue_high_water",
        Json::U64(totals.engine.queue_high_water),
    );

    let mut fault = Json::obj();
    fault.set("dropped", Json::U64(totals.faults.dropped));
    fault.set("outage_dropped", Json::U64(totals.faults.outage_dropped));
    fault.set("delayed", Json::U64(totals.faults.delayed));
    fault.set("duplicated", Json::U64(totals.faults.duplicated));
    fault.set("corrupted", Json::U64(totals.faults.corrupted));
    fault.set("truncated", Json::U64(totals.faults.truncated));
    fault.set("outage_micros", Json::U64(totals.faults.outage_micros));

    let (tx, rx) = totals.conservation();
    let mut conservation = Json::obj();
    conservation.set("frames_tx", Json::U64(tx));
    conservation.set("frames_rx", Json::U64(rx));
    conservation.set(
        "forwarded_plus_unlinked",
        Json::U64(totals.engine.frames_forwarded + totals.engine.frames_dropped_unlinked),
    );
    conservation.set("delivered", Json::U64(totals.engine.frames_delivered));

    let mut nodes = Json::obj();
    for n in &totals.nodes {
        let mut link = Json::obj();
        link.set("frames_tx", Json::U64(n.link.frames_tx));
        link.set("frames_rx", Json::U64(n.link.frames_rx));
        link.set("bytes_tx", Json::U64(n.link.bytes_tx));
        link.set("bytes_rx", Json::U64(n.link.bytes_rx));
        link.set("drops_unlinked", Json::U64(n.link.drops_unlinked));
        link.set("timer_fires", Json::U64(n.link.timer_fires));
        let mut device = Json::obj();
        for (name, value) in n.device.iter() {
            device.set(name, Json::U64(value));
        }
        let mut row = Json::obj();
        row.set("link", link);
        row.set("device", device);
        nodes.set(&n.name, row);
    }

    let mut metrics = Json::obj();
    metrics.set("engine", engine);
    metrics.set("fault", fault);
    metrics.set("conservation", conservation);
    metrics.set("nodes", nodes);
    metrics
}

fn population_config_section(spec: &PopulationSpec) -> Json {
    let weights = |rows: Vec<(String, u32)>| {
        let mut obj = Json::obj();
        for (label, w) in rows {
            obj.set(&label, Json::U64(u64::from(w)));
        }
        obj
    };
    let mut config = Json::obj();
    config.set("seed", Json::U64(spec.seed));
    config.set("size", Json::U64(spec.size));
    config.set("spec_digest", hex(spec.digest()));
    config.set(
        "os_weights",
        weights(
            spec.os_weights
                .iter()
                .map(|&(id, w)| (id.name().to_string(), w))
                .collect(),
        ),
    );
    config.set(
        "topology_weights",
        weights(
            spec.topology_weights
                .iter()
                .map(|&(t, w)| (t.label().to_string(), w))
                .collect(),
        ),
    );
    config.set(
        "poison_weights",
        weights(
            spec.poison_weights
                .iter()
                .map(|&(p, w)| (p.label().to_string(), w))
                .collect(),
        ),
    );
    config.set(
        "fault_weights",
        weights(
            spec.fault_weights
                .iter()
                .map(|&(f, w)| (f.label().to_string(), w))
                .collect(),
        ),
    );
    config
}

fn population_census_section(report: &PopulationReport) -> Json {
    let mut by_os = Json::obj();
    for (os, row) in report.census_by_os() {
        by_os.set(os, census_row(&row));
    }
    let mut census = Json::obj();
    census.set("fleet", census_row(&report.sketch.census));
    census.set("by_os", by_os);
    census
}

fn fault_mix_section(report: &PopulationReport) -> Json {
    let mut mix = Json::obj();
    for (f, &n) in FaultVariant::ALL.iter().zip(&report.sketch.fault_mix) {
        mix.set(f.label(), Json::U64(n));
    }
    mix
}

fn sketch_section(report: &PopulationReport) -> Json {
    let row = |sketch: &LatencySketch, pct: SketchPercentiles| {
        let mut r = Json::obj();
        r.set("count", Json::U64(sketch.count));
        r.set("min", Json::U64(sketch.min));
        r.set("max", Json::U64(sketch.max));
        r.set("p50", Json::U64(pct.p50));
        r.set("p90", Json::U64(pct.p90));
        r.set("p99", Json::U64(pct.p99));
        // The digest covers the full bucket table, so distribution
        // drift between the committed quantiles is still caught.
        r.set("digest", hex(sketch.digest()));
        r
    };
    let mut sketch = Json::obj();
    sketch.set(
        "completed_us",
        row(&report.sketch.completed_us, report.completed_us()),
    );
    sketch.set("events", row(&report.sketch.events, report.events()));
    sketch
}

fn timing_section(report: &FleetReport) -> Json {
    let pct = |p: &v6fleet::Percentiles| {
        let mut row = Json::obj();
        row.set("p50", Json::U64(p.p50));
        row.set("p90", Json::U64(p.p90));
        row.set("max", Json::U64(p.max));
        row
    };
    let mut timing = Json::obj();
    timing.set("completed_us", pct(&report.timing.completed_us));
    timing.set("events", pct(&report.timing.events));
    timing
}
