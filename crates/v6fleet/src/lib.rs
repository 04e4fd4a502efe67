//! # v6fleet — parallel multi-seed scenario fleet runner
//!
//! Runs many independent [`Scenario`]s — cells of the paper's Fig. 4
//! evaluation matrix, each with its own seed and virtual clock — across
//! a pool of worker threads, and aggregates the results into a
//! [`FleetReport`].
//!
//! The report is **deterministic by construction**: every scenario is a
//! pure function of its descriptor (`v6testbed` guarantees this — one
//! seeded RNG, one virtual clock, a totally ordered event queue), and
//! the aggregation step orders results by scenario position, not by
//! completion order. So a 64-scenario fleet on 8 threads produces a
//! report equal — field for field, including every per-node counter —
//! to the same fleet run serially. Wall-clock figures, which genuinely
//! differ run to run, live in the separate [`WallStats`] and never
//! participate in report comparison.
//!
//! ```
//! use v6fleet::FleetRunner;
//! use v6testbed::Scenario;
//!
//! let scenarios: Vec<Scenario> = Scenario::matrix(0x5c24).into_iter().take(4).collect();
//! let parallel = FleetRunner::new(4).run(&scenarios);
//! let serial = FleetRunner::new(1).run(&scenarios);
//! assert_eq!(parallel.report, serial.report);
//! ```

#![warn(missing_docs)]

pub mod population;
pub mod sketch;

pub use population::{PopulationReport, PopulationRun, PopulationSpec};
pub use sketch::{nearest_rank, CensusSketch, LatencySketch, SketchPercentiles};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use v6testbed::scenario::ResolutionFailure;
use v6testbed::{CellArena, CellObservation, Scenario, ScenarioResult, TraceMode};

/// Streaming hooks into a running fleet: an observer shared across the
/// pool's workers, notified as each unit of work completes and *before*
/// the deterministic aggregation step. This is how a long-lived service
/// (`v6labd`) publishes live progress — census counters, latency
/// sketches, metrics totals — while a job is still executing, without
/// perturbing the report (observers get shared references; the results
/// the report aggregates are exactly the ones the observer saw).
///
/// Methods default to no-ops so an observer implements only the hooks
/// it needs. Implementations must be `Sync`: workers call them
/// concurrently, in completion order (which is scheduling-dependent —
/// anything an observer accumulates must therefore be order-independent,
/// e.g. a [`CensusSketch`] merge, if it is later compared across runs).
pub trait FleetObserver: Sync {
    /// Scenario `index` of the input list finished with `result`.
    fn scenario_done(&self, index: usize, result: &ScenarioResult) {
        let _ = (index, result);
    }

    /// Population shard `shard` folded its index range into `sketch`.
    fn shard_done(&self, shard: usize, sketch: &sketch::CensusSketch) {
        let _ = (shard, sketch);
    }
}

/// The do-nothing observer behind the plain `run`/`run_population`
/// entry points.
pub(crate) struct NoopObserver;

impl FleetObserver for NoopObserver {}

/// A pool of worker threads that drains a scenario list.
///
/// Scheduling is a shared atomic cursor: each worker claims the next
/// unclaimed scenario index and runs it to completion, so threads that
/// draw short scenarios automatically pick up more work (the "work
/// stealing" is the queue itself — there is nothing to steal back
/// because items are claimed one at a time).
#[derive(Debug, Clone, Copy)]
pub struct FleetRunner {
    threads: usize,
    trace_mode: TraceMode,
}

impl FleetRunner {
    /// A runner with `threads` workers (at least one). Scenarios run
    /// under [`TraceMode::Hops`] — trace verbosity never perturbs the
    /// simulation, so the report is identical in every mode; use
    /// [`FleetRunner::with_trace_mode`] to pick `Off` (fastest) or
    /// `Full` (eager per-frame summaries).
    pub fn new(threads: usize) -> FleetRunner {
        assert!(threads >= 1, "a fleet needs at least one worker");
        FleetRunner {
            threads,
            trace_mode: TraceMode::Hops,
        }
    }

    /// The same runner with an explicit engine trace mode.
    pub fn with_trace_mode(mut self, trace_mode: TraceMode) -> FleetRunner {
        self.trace_mode = trace_mode;
        self
    }

    /// Number of worker threads this runner spawns.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine trace mode scenarios run under.
    pub fn trace_mode(&self) -> TraceMode {
        self.trace_mode
    }

    /// Run every scenario and aggregate.
    ///
    /// Panics in a scenario propagate to the caller (a broken testbed
    /// build should fail the fleet, not vanish into a worker).
    pub fn run(&self, scenarios: &[Scenario]) -> FleetRun {
        self.run_observed(scenarios, &NoopObserver)
    }

    /// [`FleetRunner::run`] with a streaming [`FleetObserver`]: every
    /// finished scenario is reported to `observer` as it completes,
    /// before aggregation. The returned report is identical to
    /// [`FleetRunner::run`]'s — observation never perturbs the fleet.
    ///
    /// Cells run warm: each worker owns a [`CellArena`] and recycles a
    /// built testbed between cells instead of rebuilding one per cell.
    /// Warm results are byte-identical to cold ones (`run_serial`, which
    /// stays on the cold path, is the baseline the determinism tests
    /// compare against).
    pub fn run_observed(&self, scenarios: &[Scenario], observer: &dyn FleetObserver) -> FleetRun {
        let started = Instant::now();
        let mode = self.trace_mode;
        let results = run_pool(self.threads, scenarios, |arena, i, s| {
            let r = arena.run_with_trace(s, mode);
            observer.scenario_done(i, &r);
            r
        });
        let wall = WallStats {
            threads: self.threads,
            elapsed: started.elapsed(),
            scenarios: scenarios.len(),
        };
        FleetRun {
            report: FleetReport::aggregate(results),
            wall,
        }
    }
}

/// Run `job(arena, i, &items[i])` for every item on `threads` workers and
/// return the results in index order. Each worker owns one
/// [`CellArena`] for all the items it claims; workers claim the next
/// unclaimed index, so uneven items balance themselves. One thread runs
/// on the caller's thread. A panicking job propagates to the caller.
fn run_pool<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    job: impl Fn(&mut CellArena, usize, &T) -> R + Sync,
) -> Vec<R> {
    if threads == 1 {
        let mut arena = CellArena::new();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| job(&mut arena, i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut arena = CellArena::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let r = job(&mut arena, i, item);
                        slots.lock().expect("no poisoned worker")[i] = Some(r);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("fleet worker panicked");
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// What [`FleetRunner::run`] hands back: the deterministic report plus
/// the run's (non-deterministic) wall-clock figures.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Deterministic aggregate — equal across same-input runs.
    pub report: FleetReport,
    /// Wall-clock throughput of this particular run.
    pub wall: WallStats,
}

/// Wall-clock figures for one fleet execution. Deliberately kept out of
/// [`FleetReport`] so report equality is meaningful.
#[derive(Debug, Clone, Copy)]
pub struct WallStats {
    /// Worker threads used.
    pub threads: usize,
    /// Real time the fleet took.
    pub elapsed: Duration,
    /// Scenarios executed.
    pub scenarios: usize,
}

impl WallStats {
    /// Scenarios per wall-clock second.
    pub fn scenarios_per_sec(&self) -> f64 {
        self.scenarios as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Aggregate IPv6-only census over a whole fleet, SC23-naive vs
/// SC24-accurate methodology (paper §III.A) plus the intervention and
/// RFC 8925 engagement totals the evaluation tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCensus {
    /// Clients that associated (one per scenario).
    pub associated: usize,
    /// SC23-style count: everyone on the SSID.
    pub naive_v6only: usize,
    /// SC24-style count: IPv6 works and no IPv4 data path remains.
    pub accurate_v6only: usize,
    /// Clients still holding an IPv4 path.
    pub with_v4_path: usize,
    /// Clients where RFC 8925 engaged.
    pub rfc8925_engaged: usize,
    /// Clients redirected to the intervention page.
    pub intervened: usize,
    /// Scenarios where injected faults visibly bit: frames lost to the
    /// fault plan, or NAT64 bindings refused by a saturated table. Zero
    /// on every clean fleet, so pre-fault reports are unchanged.
    pub degraded: usize,
    /// Clients per classified DNS resolution failure, indexed by
    /// [`ResolutionFailure::index`]. Each client is counted at most
    /// once, under its most severe reason (lowest index wins) — the
    /// same projection `CellObservation::dns_failure` carries. All
    /// zero on fleets whose resolution never failed, so pre-existing
    /// reports only gain zero-valued columns.
    pub dns_failures: [usize; ResolutionFailure::ALL.len()],
}

impl FleetCensus {
    /// Count one observed cell — the only place an observation becomes
    /// census counts.
    pub fn count(&mut self, obs: &CellObservation) {
        self.associated += 1;
        self.naive_v6only += usize::from(obs.naive_counted);
        self.accurate_v6only += usize::from(obs.accurate_counted);
        self.with_v4_path += usize::from(obs.has_v4);
        self.rfc8925_engaged += usize::from(obs.rfc8925_engaged);
        self.intervened += usize::from(obs.intervened);
        self.degraded += usize::from(obs.degraded);
        if let Some(f) = obs.dns_failure {
            self.dns_failures[f.index()] += 1;
        }
    }
}

impl std::ops::AddAssign<&FleetCensus> for FleetCensus {
    /// Element-wise sum: counting two disjoint cell sets and adding
    /// equals counting their union.
    fn add_assign(&mut self, other: &FleetCensus) {
        self.associated += other.associated;
        self.naive_v6only += other.naive_v6only;
        self.accurate_v6only += other.accurate_v6only;
        self.with_v4_path += other.with_v4_path;
        self.rfc8925_engaged += other.rfc8925_engaged;
        self.intervened += other.intervened;
        self.degraded += other.degraded;
        for (a, b) in self.dns_failures.iter_mut().zip(other.dns_failures) {
            *a += b;
        }
    }
}

/// `p50` / `p90` / `max` over a per-scenario quantity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Median (nearest-rank).
    pub p50: u64,
    /// 90th percentile (nearest-rank).
    pub p90: u64,
    /// Maximum.
    pub max: u64,
}

impl Percentiles {
    fn of(mut samples: Vec<u64>) -> Percentiles {
        samples.sort_unstable();
        // nearest_rank handles the once-latent edge cases uniformly:
        // empty → 0 (== default), one element → itself at every q, and
        // the computed rank is clamped so float rounding can't index
        // past either end.
        Percentiles {
            p50: nearest_rank(&samples, 0.50),
            p90: nearest_rank(&samples, 0.90),
            max: samples.last().copied().unwrap_or(0),
        }
    }
}

/// Virtual-clock timing distribution across the fleet. All figures are
/// simulation time — identical for identical inputs regardless of how
/// many threads did the work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetTiming {
    /// Virtual microseconds at which scenarios finished.
    pub completed_us: Percentiles,
    /// Engine events processed per scenario.
    pub events: Percentiles,
}

/// The deterministic aggregate of a fleet run.
///
/// Contains every per-scenario [`ScenarioResult`] (in scenario order),
/// the fleet-wide census, and virtual-clock timing percentiles. Two
/// fleets over the same scenario list compare equal with `==` no matter
/// the thread count or completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Per-scenario results, ordered as the input scenarios were.
    pub results: Vec<ScenarioResult>,
    /// Aggregate census.
    pub census: FleetCensus,
    /// Virtual-clock timing distribution.
    pub timing: FleetTiming,
}

impl FleetReport {
    /// Fold per-scenario results (already in scenario order) into the
    /// fleet-wide aggregate.
    pub fn aggregate(results: Vec<ScenarioResult>) -> FleetReport {
        let mut census = FleetCensus::default();
        for r in &results {
            census.count(&r.verdict);
        }
        let timing = FleetTiming {
            completed_us: Percentiles::of(results.iter().map(|r| r.verdict.completed_us).collect()),
            events: Percentiles::of(results.iter().map(|r| r.verdict.events).collect()),
        };
        FleetReport {
            results,
            census,
            timing,
        }
    }

    /// Census broken down by OS profile (sorted by profile name): which
    /// populations still reach the explanation portal, hold a v4 path,
    /// or degrade under the injected faults. The per-profile rows are
    /// what the clean-vs-impaired diff in `examples/fleet_census.rs`
    /// compares.
    pub fn census_by_os(&self) -> Vec<(String, FleetCensus)> {
        let mut rows: std::collections::BTreeMap<&str, FleetCensus> =
            std::collections::BTreeMap::new();
        for r in &self.results {
            rows.entry(&r.os).or_default().count(&r.verdict);
        }
        rows.into_iter()
            .map(|(os, row)| (os.to_string(), row))
            .collect()
    }

    /// Sum every per-scenario [`v6sim::metrics::MetricsSnapshot`] into
    /// one fleet-wide totals block — the metrics section a canonical run
    /// manifest serializes.
    ///
    /// Every field is a plain sum across scenarios except
    /// `engine.queue_high_water`, which is the fleet-wide maximum (each
    /// scenario runs its own event queue, so summing high-water marks
    /// would describe no real queue). Node rows are merged by node name
    /// and ordered by name, so the totals are independent of scenario
    /// order, thread count, and trace mode — the same invariances the
    /// per-scenario results already guarantee.
    pub fn metrics_totals(&self) -> FleetMetricsTotals {
        let mut engine = v6sim::metrics::EngineMetrics::default();
        let mut faults = v6sim::metrics::FaultCounters::default();
        let mut pool = v6sim::metrics::PoolCounters::default();
        let mut trace = v6sim::metrics::TraceCounters::default();
        let mut nodes: std::collections::BTreeMap<
            String,
            (v6sim::metrics::LinkCounters, v6wire::metrics::Metrics),
        > = std::collections::BTreeMap::new();
        for r in &self.results {
            let m = &r.metrics;
            engine.events_processed += m.engine.events_processed;
            engine.frames_delivered += m.engine.frames_delivered;
            engine.frames_forwarded += m.engine.frames_forwarded;
            engine.frames_dropped_unlinked += m.engine.frames_dropped_unlinked;
            engine.timers_fired += m.engine.timers_fired;
            engine.queue_high_water = engine.queue_high_water.max(m.engine.queue_high_water);
            faults.dropped += m.faults.dropped;
            faults.outage_dropped += m.faults.outage_dropped;
            faults.delayed += m.faults.delayed;
            faults.duplicated += m.faults.duplicated;
            faults.corrupted += m.faults.corrupted;
            faults.truncated += m.faults.truncated;
            faults.outage_micros += m.faults.outage_micros;
            pool.allocated += m.pool.allocated;
            pool.reused += m.pool.reused;
            trace.suppressed += m.trace.suppressed;
            trace.capture_suppressed += m.trace.capture_suppressed;
            for n in &m.nodes {
                let (link, device) = nodes.entry(n.name.clone()).or_default();
                link.frames_tx += n.link.frames_tx;
                link.frames_rx += n.link.frames_rx;
                link.bytes_tx += n.link.bytes_tx;
                link.bytes_rx += n.link.bytes_rx;
                link.drops_unlinked += n.link.drops_unlinked;
                link.timer_fires += n.link.timer_fires;
                device.merge(&n.device);
            }
        }
        FleetMetricsTotals {
            engine,
            faults,
            pool,
            trace,
            nodes: nodes
                .into_iter()
                .map(|(name, (link, device))| NodeTotals { name, link, device })
                .collect(),
        }
    }

    /// Sum one named device counter for the node called `node` across
    /// every scenario (e.g. `("5g-gw", "nat64.outbound")`).
    pub fn sum_device_counter(&self, node: &str, counter: &str) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.metrics.node(node))
            .map(|n| n.device.get(counter))
            .sum()
    }

    /// Render the whole report: one row per scenario, then the census
    /// and timing summary. Stable across runs (it contains no wall-clock
    /// data), so it can be diffed like the golden traces.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&r.render());
            out.push('\n');
        }
        let c = &self.census;
        out.push_str(&format!(
            "census: associated={} naive-v6only={} accurate-v6only={} with-v4-path={} rfc8925={} intervened={}",
            c.associated, c.naive_v6only, c.accurate_v6only, c.with_v4_path, c.rfc8925_engaged, c.intervened,
        ));
        if c.degraded > 0 {
            out.push_str(&format!(" degraded={}", c.degraded));
        }
        out.push('\n');
        if c.dns_failures.iter().any(|&n| n > 0) {
            out.push_str("dns-fail:");
            for f in ResolutionFailure::ALL {
                out.push_str(&format!(" {}={}", f.label(), c.dns_failures[f.index()]));
            }
            out.push('\n');
        }
        let t = &self.timing;
        out.push_str(&format!(
            "sim-timing: completed_us p50={} p90={} max={}; events p50={} p90={} max={}\n",
            t.completed_us.p50,
            t.completed_us.p90,
            t.completed_us.max,
            t.events.p50,
            t.events.p90,
            t.events.max,
        ));
        out
    }
}

/// One node's fleet-wide totals: engine link counters and device
/// counters summed across every scenario the node appeared in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTotals {
    /// The node's name (shared across scenarios by construction — every
    /// cell builds the same Fig. 4 topology).
    pub name: String,
    /// Summed physical-layer counters.
    pub link: v6sim::metrics::LinkCounters,
    /// Summed device counters.
    pub device: v6wire::metrics::Metrics,
}

/// Fleet-wide metrics sums — see [`FleetReport::metrics_totals`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetMetricsTotals {
    /// Engine totals (sums; `queue_high_water` is the fleet max).
    pub engine: v6sim::metrics::EngineMetrics,
    /// Injected-fault totals.
    pub faults: v6sim::metrics::FaultCounters,
    /// Frame-pool totals.
    pub pool: v6sim::metrics::PoolCounters,
    /// Trace/capture cap-overflow totals.
    pub trace: v6sim::metrics::TraceCounters,
    /// Per-node rows, ordered by node name.
    pub nodes: Vec<NodeTotals>,
}

impl FleetMetricsTotals {
    /// The frame-conservation identity the engine guarantees, as plain
    /// data for the manifest: `sum(tx) == forwarded + dropped_unlinked`
    /// and `sum(rx) == delivered`, fleet-wide.
    pub fn conservation(&self) -> (u64, u64) {
        let tx: u64 = self.nodes.iter().map(|n| n.link.frames_tx).sum();
        let rx: u64 = self.nodes.iter().map(|n| n.link.frames_rx).sum();
        (tx, rx)
    }
}

/// Convenience: run `scenarios` one at a time on the calling thread,
/// each on a freshly built testbed (the *cold* path). The baseline the
/// parallel — and, since warm-cell execution, recycled — paths are
/// checked against.
pub fn run_serial(scenarios: &[Scenario]) -> FleetReport {
    FleetReport::aggregate(scenarios.iter().map(Scenario::run).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6host::profiles::OsProfile;
    use v6testbed::scenario::{FaultVariant, PoisonVariant, TopologyVariant};
    use v6testbed::Scenario;

    #[test]
    fn run_pool_returns_every_result_in_index_order() {
        let caller = std::thread::current().id();
        for threads in [1, 3, 8] {
            // No items, fewer items than threads, more items than threads.
            for n in [0usize, 2, 37] {
                let items: Vec<usize> = (0..n).map(|i| i * 10).collect();
                let calls = AtomicUsize::new(0);
                let out = run_pool(threads, &items, |_arena, i, &x| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    if threads == 1 {
                        assert_eq!(std::thread::current().id(), caller);
                    }
                    (i, x + 1)
                });
                let want: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 10 + 1)).collect();
                assert_eq!(out, want, "{threads} threads, {n} items");
                assert_eq!(calls.into_inner(), n, "each item runs exactly once");
            }
        }
    }

    fn tiny_fleet() -> Vec<Scenario> {
        [
            OsProfile::macos(),
            OsProfile::nintendo_switch(),
            OsProfile::windows_10(),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, os)| Scenario {
            os,
            topology: TopologyVariant::PaperDefault,
            poison: PoisonVariant::WildcardA,
            fault: FaultVariant::Clean,
            seed: 0x900 + i as u64,
        })
        .collect()
    }

    #[test]
    fn parallel_equals_serial() {
        let scenarios = tiny_fleet();
        let serial = run_serial(&scenarios);
        let parallel = FleetRunner::new(3).run(&scenarios);
        assert_eq!(serial, parallel.report);
        assert_eq!(serial.render(), parallel.report.render());
    }

    #[test]
    fn census_counts_the_expected_population() {
        let report = run_serial(&tiny_fleet());
        assert_eq!(report.census.associated, 3);
        // macOS honours option 108; the console and Win10 differ on v4.
        assert!(report.census.rfc8925_engaged >= 1);
        assert!(
            report.census.intervened >= 1,
            "the v4-only console lands on the page"
        );
        assert!(report.timing.events.max >= report.timing.events.p50);
    }

    #[test]
    fn metrics_totals_sum_across_scenarios() {
        let report = run_serial(&tiny_fleet());
        let t = report.metrics_totals();
        let events: u64 = report
            .results
            .iter()
            .map(|r| r.metrics.engine.events_processed)
            .sum();
        assert_eq!(t.engine.events_processed, events);
        let (tx, rx) = t.conservation();
        assert_eq!(
            tx,
            t.engine.frames_forwarded + t.engine.frames_dropped_unlinked
        );
        assert_eq!(rx, t.engine.frames_delivered);
        assert!(
            t.nodes.windows(2).all(|w| w[0].name < w[1].name),
            "rows in name order"
        );
        let gw = t
            .nodes
            .iter()
            .find(|n| n.name == "5g-gw")
            .expect("gateway row");
        assert_eq!(
            gw.device.get("nat64.outbound"),
            report.sum_device_counter("5g-gw", "nat64.outbound"),
        );
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = Percentiles::of(vec![10, 20, 30, 40]);
        assert_eq!((p.p50, p.p90, p.max), (20, 40, 40));
        assert_eq!(Percentiles::of(vec![]), Percentiles::default());
        let one = Percentiles::of(vec![7]);
        assert_eq!((one.p50, one.p90, one.max), (7, 7, 7));
    }
}
