//! The `census` workload: the researcher's headline number.
//!
//! Rounds of a paper-default population census, each run through
//! [`FleetRunner::run_population`] on 1 worker and then on every core
//! (the order alternates between rounds so slow drift hits both
//! equally). A [`ShardClock`] observer timestamps every finished shard
//! on its worker thread, so one round yields many timing samples.
//!
//! * `cells_per_s` — fast 1-worker shard rate (cells ÷ shard
//!   wall);
//! * `cells_per_s_loaded` — the same with every core running the census
//!   (per-thread shard rate × workers);
//! * `request_us` — wall time of a cold single-cell replay
//!   (`CellSpec::run_observation` on a freshly built testbed), the
//!   researcher's "why did this cell get this verdict" question: each
//!   of [`REPLAY_CELLS`] cells is replayed once per round, and the
//!   metric is the median over cells of each cell's fast time;
//! * gates — every round's 1-worker and N-worker reports are equal,
//!   every replay equals the warm arena's observation, and at the
//!   canonical seed the 100k canonical census, on both, equals
//!   `reports/population_100k.json` byte for byte.

use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use v6fleet::{CensusSketch, FleetObserver, FleetRunner, PopulationReport, PopulationSpec};
use v6report::CANONICAL_BASE_SEED;
use v6testbed::scenario::{FaultVariant, OsProfileId, PoisonVariant, TopologyVariant};
use v6testbed::{CellArena, CellSpec};

use crate::gates::{self, Goldens};
use crate::stats::Samples;
use crate::{fast_rate, fast_time, host, Config, Outcome};

/// Cells per census round.
pub const ROUND_CELLS: u64 = 20_000;
/// Cells per shard: the unit the latency metric times.
pub const SHARD_CELLS: u64 = 250;
/// Set-up repetitions after each census round; `setup_s` is the median
/// over all of them.
pub const SETUP_REPS: usize = 3;

/// The seed of round `k`: round 0 uses the workload seed itself.
pub fn round_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Set-up shared by the census and matrix workloads: load the goldens
/// and build every testbed configuration once, running its first cell,
/// so lazily initialised program state (zones, interned names) is paid
/// here and not inside the first timed operation.
pub fn setup(root: &std::path::Path) -> Result<Goldens, String> {
    let goldens = Goldens::load(&root.join("reports"))?;
    let mut arena = CellArena::new();
    for topology in TopologyVariant::ALL {
        for poison in PoisonVariant::ALL {
            std::hint::black_box(arena.run_observation(CellSpec {
                os: OsProfileId(0),
                topology,
                poison,
                fault: FaultVariant::Clean,
                seed: 1,
            }));
        }
    }
    Ok(goldens)
}

/// Set-up repetitions, spread over the run so their median samples the
/// same host conditions as the measurement rather than one instant.
#[derive(Debug, Default)]
pub struct SetupTimes {
    times: Samples,
    first_ready: f64,
}

impl SetupTimes {
    /// Run one set-up and time it. The first also records the time from
    /// process start to ready.
    pub fn rep<T>(
        &mut self,
        cfg: &Config,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let t = Instant::now();
        let r = setup()?;
        self.times.push(t.elapsed().as_secs_f64());
        if self.times.len() == 1 {
            self.first_ready = cfg.started.elapsed().as_secs_f64();
        }
        Ok(r)
    }

    /// Report `setup_s` (the median) and the detail rows.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("setup_s", self.times.median());
        out.num("setup_reps", self.times.len() as f64);
        out.num("first_ready_s", self.first_ready);
    }
}

/// Times every finished shard on the worker thread that folded it.
pub struct ShardClock {
    started: Instant,
    last: Mutex<HashMap<ThreadId, Instant>>,
    /// `(cells, seconds)` per finished shard.
    pub shards: Mutex<Vec<(u64, f64)>>,
}

impl ShardClock {
    /// A clock whose first shards are timed from now.
    pub fn new() -> ShardClock {
        ShardClock {
            started: Instant::now(),
            last: Mutex::new(HashMap::new()),
            shards: Mutex::new(Vec::new()),
        }
    }
}

impl Default for ShardClock {
    fn default() -> Self {
        ShardClock::new()
    }
}

impl FleetObserver for ShardClock {
    fn shard_done(&self, _shard: usize, sketch: &CensusSketch) {
        let now = Instant::now();
        let prev = self
            .last
            .lock()
            .expect("shard clock lock")
            .insert(std::thread::current().id(), now)
            .unwrap_or(self.started);
        self.shards
            .lock()
            .expect("shard clock lock")
            .push((sketch.samples, (now - prev).as_secs_f64()));
    }
}

/// Run one census on `threads` workers; records each shard's rate
/// (per-thread rate × threads) and the whole census's rate.
fn timed_census(
    spec: &PopulationSpec,
    shards: usize,
    threads: usize,
    shard_rates: &mut Samples,
    census_rates: &mut Samples,
) -> PopulationReport {
    let clock = ShardClock::new();
    let run = FleetRunner::new(threads).run_population_observed(spec, shards, &clock);
    for &(cells, secs) in clock.shards.lock().expect("shard clock lock").iter() {
        shard_rates.push(threads as f64 * cells as f64 / secs);
    }
    census_rates.push(spec.size as f64 / run.wall.elapsed.as_secs_f64());
    run.report
}

/// Cells replayed cold once per census round.
pub const REPLAY_CELLS: u64 = 32;

/// Run the census workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let root = host::repo_root();
    let mut setups = SetupTimes::default();
    let goldens = setups.rep(cfg, || setup(&root))?;
    let (round_cells, shard_cells, replays) = if cfg.tiny {
        (600, 100, 5)
    } else {
        (ROUND_CELLS, SHARD_CELLS, REPLAY_CELLS)
    };
    let shards = (round_cells / shard_cells) as usize;
    let workers = cfg.workers();
    let mut out = Outcome::default();

    let mut x1_rate = Samples::new();
    let mut xn_rate = Samples::new();
    let replay_spec = PopulationSpec::paper_default(!cfg.seed, replays);
    let replay_cells: Vec<CellSpec> = (0..replays).map(|i| replay_spec.cell(i)).collect();
    let mut arena = CellArena::new();
    let reference: Vec<_> = replay_cells
        .iter()
        .map(|&c| arena.run_observation(c))
        .collect();
    let mut replay_us = vec![Samples::new(); replay_cells.len()];
    let mut x1_round = Samples::new();
    let mut xn_round = Samples::new();
    let started = Instant::now();
    let mut k = 0u64;
    while k == 0 || started.elapsed().as_secs_f64() < cfg.seconds {
        let spec = PopulationSpec::paper_default(round_seed(cfg.seed, k), round_cells);
        let (x1, xn) = if k.is_multiple_of(2) {
            let x1 = timed_census(&spec, shards, 1, &mut x1_rate, &mut x1_round);
            (
                x1,
                timed_census(&spec, shards, workers, &mut xn_rate, &mut xn_round),
            )
        } else {
            let xn = timed_census(&spec, shards, workers, &mut xn_rate, &mut xn_round);
            (
                timed_census(&spec, shards, 1, &mut x1_rate, &mut x1_round),
                xn,
            )
        };
        out.op(gates::population_pair(
            &format!("census round {k}"),
            round_cells,
            &x1,
            &xn,
        ));
        // A researcher's single-cell question: replay a cell on a
        // freshly built testbed. The same cells are replayed every
        // round, so each cell's fastest replay comes from the calmest
        // moment of the whole run. Each must agree with the arena.
        for (c, &cell) in replay_cells.iter().enumerate() {
            let t = Instant::now();
            let cold = cell.run_observation();
            replay_us[c].push(t.elapsed().as_secs_f64() * 1e6);
            out.op(gates::same_observation(
                &format!("census round {k}: cold replay of {cell:?}"),
                &cold,
                &reference[c],
            ));
        }
        for _ in 0..SETUP_REPS {
            setups.rep(cfg, || setup(&root))?;
        }
        k += 1;
    }
    let measured = started.elapsed().as_secs_f64();

    if cfg.seed == CANONICAL_BASE_SEED && !cfg.tiny {
        let spec = v6report::canonical_population();
        for threads in [1, workers] {
            let run = FleetRunner::new(threads)
                .run_population(&spec, v6report::CANONICAL_POPULATION_SHARDS);
            out.op(gates::population_golden(&goldens, &spec, &run.report));
        }
        out.text("gate.population_golden", "checked");
    }

    out.metric("cells_per_s", fast_rate(&x1_rate));
    out.metric("cells_per_s_loaded", fast_rate(&xn_rate));
    let mut replay_fast = Samples::new();
    let mut replay_all = Samples::new();
    for s in &replay_us {
        replay_fast.push(fast_time(s));
        replay_all.extend(s);
    }
    out.metric("request_us", replay_fast.median());
    setups.report(&mut out);
    out.metric("peak_rss_mb", host::peak_rss_mb());

    out.num("census_cells_per_s", x1_round.median());
    out.num("census_cells_per_s_xN", xn_round.median());
    out.num("census_xN", workers as f64);
    out.num(
        "census_thread_scaling",
        xn_round.median() / x1_round.median(),
    );
    out.num("census_shard_rate_x1.p50", x1_rate.median());
    out.num("census_shard_rate_x1.fast", fast_rate(&x1_rate));
    out.num("census_shard_rate_x1.samples", x1_rate.len() as f64);
    out.num("census_shard_rate_xN.p50", xn_rate.median());
    out.num("census_shard_rate_xN.fast", fast_rate(&xn_rate));
    out.timing("cell_replay_us", &replay_all, 0.99);
    out.num("census_rounds", k as f64);
    out.num("census_round_cells", round_cells as f64);
    out.num("census_shard_cells", shard_cells as f64);
    out.num("measured_s", measured);
    Ok(out)
}
