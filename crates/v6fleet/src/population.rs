//! Population-scale census: sample host cells from weighted OS / app /
//! fault distributions and fold them through the worker pool into a
//! streaming [`CensusSketch`].
//!
//! The two determinism guarantees, and how they're structural rather
//! than incidental:
//!
//! 1. **Shard layout can't leak into the sample.** Each cell is derived
//!    from `(population seed, cell index)` alone by a splittable PRNG —
//!    there is no sequential RNG stream whose position depends on which
//!    shard drew first. Cell 0x4242 is the same cell whether the census
//!    ran as one shard or a thousand.
//! 2. **Shard layout can't leak into the aggregate.** Every shard folds
//!    its cells into a [`CensusSketch`], and sketch merge is an exact
//!    integer monoid (associative + commutative, `merge == union`) —
//!    proven by the property tests in `tests/population.rs`.
//!
//! Together: same spec ⇒ byte-identical [`PopulationReport`] for any
//! thread count and any shard count.

use crate::sketch::CensusSketch;
use crate::{
    census_rows, run_pool, FleetCensus, FleetObserver, FleetRunner, NoopObserver,
    SketchPercentiles, WallStats,
};
use std::time::Instant;
use v6testbed::scenario::FaultVariant;
use v6testbed::{CellArena, CellSpec, OsProfileId, PoisonVariant, TopologyVariant};

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer — a strong 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny splittable PRNG: the stream for one cell, keyed entirely by
/// `(population seed, cell index)`. This is splitmix64 started from a
/// per-cell derived state, so draws for cell `i` are independent of
/// every other cell and of any shard layout.
struct CellRng {
    state: u64,
}

impl CellRng {
    fn for_cell(seed: u64, index: u64) -> CellRng {
        CellRng {
            state: seed ^ mix(index.wrapping_add(0x5c24).wrapping_mul(GOLDEN)),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }
}

/// Draw from a cumulative-weight table: `r` modulo the total weight
/// lands in exactly one entry's interval. A zero-weight entry owns an
/// empty interval, so it is unreachable — the statistical-sanity test
/// pins that down.
fn pick<T: Copy>(weights: &[(T, u32)], r: u64) -> T {
    let total: u64 = weights.iter().map(|&(_, w)| u64::from(w)).sum();
    assert!(
        total > 0,
        "a weighted dimension needs positive total weight"
    );
    let mut point = r % total;
    for &(item, w) in weights {
        let w = u64::from(w);
        if point < w {
            return item;
        }
        point -= w;
    }
    unreachable!("point < total by construction")
}

/// A deterministic description of a simulated client population: how
/// many cells, the master seed, and weighted distributions over every
/// matrix dimension. The spec *is* the population — `cell(i)` derives
/// the i-th member on the fly, so a million-host census stores no cell
/// list anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationSpec {
    /// Master seed; every cell's RNG is split from this.
    pub seed: u64,
    /// Number of host cells in the population.
    pub size: u64,
    /// Relative weight per OS profile (interned table ids). Zero-weight
    /// entries are legal and never sampled.
    pub os_weights: Vec<(OsProfileId, u32)>,
    /// Relative weight per topology variant.
    pub topology_weights: Vec<(TopologyVariant, u32)>,
    /// Relative weight per IPv4-DNS intervention.
    pub poison_weights: Vec<(PoisonVariant, u32)>,
    /// Relative weight per fault regime.
    pub fault_weights: Vec<(FaultVariant, u32)>,
}

impl PopulationSpec {
    /// The paper-inspired default mix: a conference-floor client mix
    /// dominated by recent Windows/macOS/mobile, mostly on the deployed
    /// topology with the wildcard-A intervention, with a minority of
    /// fault-impaired cells. The legacy printer is configured at weight
    /// zero — present in the table, never sampled (it doesn't run the
    /// browse workload in the wild either).
    pub fn paper_default(seed: u64, size: u64) -> PopulationSpec {
        let os_weights = OsProfileId::all()
            .map(|id| {
                let w = match id.name() {
                    "Windows XP" => 8,
                    "Windows 10" => 240,
                    "Windows 10 (IPv6 disabled)" => 12,
                    "Windows 11" => 210,
                    "Windows 11 (RFC8925)" => 45,
                    "Linux" => 40,
                    "macOS" => 170,
                    "iOS" => 140,
                    "Android" => 120,
                    "Nintendo Switch" => 15,
                    "Legacy printer" => 0,
                    other => unreachable!("unweighted profile {other}"),
                };
                (id, w)
            })
            .collect();
        PopulationSpec {
            seed,
            size,
            os_weights,
            topology_weights: vec![
                (TopologyVariant::PaperDefault, 900),
                (TopologyVariant::RawGateway, 100),
            ],
            poison_weights: vec![
                (PoisonVariant::Off, 100),
                (PoisonVariant::WildcardA, 700),
                (PoisonVariant::Rpz, 200),
            ],
            fault_weights: vec![
                (FaultVariant::Clean, 850),
                (FaultVariant::LossyUplink, 80),
                (FaultVariant::Dns64Outage, 40),
                (FaultVariant::Nat64Exhaustion, 30),
                // Present in the table (so the manifest documents the
                // regime and its weight) but never sampled: a broken
                // delegation tree is an internet-side condition, not a
                // per-client mix. The total weight is unchanged, so
                // every previously sampled cell stays the same cell.
                (FaultVariant::BrokenDelegation, 0),
            ],
        }
    }

    /// Derive the `index`-th cell. A pure function of
    /// `(self.seed, index)` — shard layout, thread count, and sampling
    /// order cannot change what any cell is.
    pub fn cell(&self, index: u64) -> CellSpec {
        debug_assert!(index < self.size, "cell index out of population");
        let mut rng = CellRng::for_cell(self.seed, index);
        let os = pick(&self.os_weights, rng.next());
        let topology = pick(&self.topology_weights, rng.next());
        let poison = pick(&self.poison_weights, rng.next());
        let fault = pick(&self.fault_weights, rng.next());
        CellSpec {
            os,
            topology,
            poison,
            fault,
            seed: rng.next(),
        }
    }

    /// FNV-1a digest over every field that defines the population —
    /// seed, size, and all four weight tables. Two specs with the same
    /// digest sample the same cells; the manifest stores this so a
    /// silently edited weight can't masquerade as the golden run.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(self.seed);
        h.eat(self.size);
        for &(id, w) in &self.os_weights {
            h.eat(1);
            h.eat(u64::from(id.0));
            h.eat(u64::from(w));
        }
        for &(t, w) in &self.topology_weights {
            h.eat(2);
            h.eat_label(t.label());
            h.eat(u64::from(w));
        }
        for &(p, w) in &self.poison_weights {
            h.eat(3);
            h.eat_label(p.label());
            h.eat(u64::from(w));
        }
        for &(f, w) in &self.fault_weights {
            h.eat(4);
            h.eat_label(f.label());
            h.eat(u64::from(w));
        }
        h.0
    }
}

/// Incremental FNV-1a over little-endian u64 words and label bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat_byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.eat_byte(b);
        }
    }

    fn eat_label(&mut self, s: &str) {
        for &b in s.as_bytes() {
            self.eat_byte(b);
        }
        self.eat_byte(0);
    }
}

/// The deterministic aggregate of a population census: the spec's
/// digest and size plus the merged [`CensusSketch`]. Equal with `==`
/// (and byte-equal through the canonical manifest) for the same spec,
/// no matter the thread or shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationReport {
    /// [`PopulationSpec::digest`] of the spec that produced this.
    pub spec_digest: u64,
    /// Cells sampled (== spec size).
    pub size: u64,
    /// The merged streaming aggregate.
    pub sketch: CensusSketch,
}

impl PopulationReport {
    /// Per-OS census rows for every profile that actually appeared,
    /// sorted by profile name (the same rows
    /// [`FleetReport::census_by_os`](crate::FleetReport::census_by_os)
    /// gives for the same cells).
    pub fn census_by_os(&self) -> Vec<(&'static str, FleetCensus)> {
        census_rows(&self.sketch.by_os)
    }

    /// Virtual completion-time percentiles (µs, sketch resolution).
    pub fn completed_us(&self) -> SketchPercentiles {
        self.sketch.completed_us.percentiles()
    }

    /// Engine events-per-cell percentiles (sketch resolution).
    pub fn events(&self) -> SketchPercentiles {
        self.sketch.events.percentiles()
    }

    /// Digest of the full report: spec digest, census counters, per-OS
    /// rows, fault mix, and the complete latency distributions. The
    /// single number the determinism tests compare.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(self.spec_digest);
        h.eat(self.size);
        h.eat(self.sketch.samples);
        let mut census = |c: &FleetCensus| {
            h.eat(c.associated as u64);
            h.eat(c.naive_v6only as u64);
            h.eat(c.accurate_v6only as u64);
            h.eat(c.with_v4_path as u64);
            h.eat(c.rfc8925_engaged as u64);
            h.eat(c.intervened as u64);
            h.eat(c.degraded as u64);
            for &n in &c.dns_failures {
                h.eat(n as u64);
            }
        };
        census(&self.sketch.census);
        for row in &self.sketch.by_os {
            census(row);
        }
        for &n in &self.sketch.fault_mix {
            h.eat(n);
        }
        h.eat(self.sketch.completed_us.digest());
        h.eat(self.sketch.events.digest());
        h.0
    }

    /// Render the census summary — stable across runs, like
    /// [`FleetReport::render`](crate::FleetReport::render).
    pub fn render(&self) -> String {
        let c = &self.sketch.census;
        let mut out = format!(
            "population: size={} spec={:016x}\ncensus: associated={} naive-v6only={} accurate-v6only={} with-v4-path={} rfc8925={} intervened={} degraded={}\n",
            self.size, self.spec_digest,
            c.associated, c.naive_v6only, c.accurate_v6only, c.with_v4_path,
            c.rfc8925_engaged, c.intervened, c.degraded,
        );
        for (name, row) in self.census_by_os() {
            out.push_str(&format!(
                "  {name}: n={} accurate-v6only={} v4-path={} intervened={} degraded={}\n",
                row.associated, row.accurate_v6only, row.with_v4_path, row.intervened, row.degraded,
            ));
        }
        out.push_str("fault-mix:");
        for (f, &n) in FaultVariant::ALL.iter().zip(&self.sketch.fault_mix) {
            out.push_str(&format!(" {}={}", f.label(), n));
        }
        out.push('\n');
        if c.dns_failures.iter().any(|&n| n > 0) {
            out.push_str("dns-fail:");
            for f in v6testbed::scenario::ResolutionFailure::ALL {
                out.push_str(&format!(" {}={}", f.label(), c.dns_failures[f.index()]));
            }
            out.push('\n');
        }
        let t = self.completed_us();
        let e = self.events();
        out.push_str(&format!(
            "sim-timing: completed_us p50={} p90={} p99={} max={}; events p50={} p90={} p99={} max={}\n",
            t.p50, t.p90, t.p99, t.max, e.p50, e.p90, e.p99, e.max,
        ));
        out
    }
}

/// What [`FleetRunner::run_population`] hands back: the deterministic
/// report plus this run's wall-clock figures.
#[derive(Debug, Clone)]
pub struct PopulationRun {
    /// Deterministic aggregate — equal across same-spec runs.
    pub report: PopulationReport,
    /// Wall-clock throughput of this particular run.
    pub wall: WallStats,
}

/// Fold one contiguous index range of the population into a sketch —
/// the census hot loop. Cells run warm on the caller's [`CellArena`]:
/// at most six distinct build configurations exist (topology × poison),
/// so after the first few cells every cell runs on a recycled testbed.
/// Warm observations are byte-identical to
/// [`CellSpec::run_observation`](v6testbed::Scenario::run_observation)
/// (the differential suite in `tests/warm_cold.rs` holds the line).
fn fold_range(arena: &mut CellArena, spec: &PopulationSpec, lo: u64, hi: u64) -> CensusSketch {
    let mut sketch = CensusSketch::new();
    for i in lo..hi {
        let cell = spec.cell(i);
        sketch.fold(cell, arena.run_observation(cell));
    }
    sketch
}

/// Split `[0, size)` into `shards` near-equal contiguous ranges.
fn shard_bounds(size: u64, shards: usize) -> Vec<(u64, u64)> {
    let shards = shards as u64;
    let base = size / shards;
    let extra = size % shards;
    let mut bounds = Vec::with_capacity(shards as usize);
    let mut lo = 0;
    for s in 0..shards {
        let hi = lo + base + u64::from(s < extra);
        bounds.push((lo, hi));
        lo = hi;
    }
    bounds
}

impl FleetRunner {
    /// Run a population census: sample every cell in `spec`, fold each
    /// shard into a [`CensusSketch`] on whichever worker claims it, and
    /// merge the shard sketches into one [`PopulationReport`].
    ///
    /// Memory is O(shards × sketch), independent of population size —
    /// no per-cell result is ever materialized. The report is invariant
    /// to both `shards` and the runner's thread count (see the module
    /// docs for why that's structural).
    pub fn run_population(&self, spec: &PopulationSpec, shards: usize) -> PopulationRun {
        self.run_population_observed(spec, shards, &NoopObserver)
    }

    /// [`FleetRunner::run_population`] with a streaming
    /// [`FleetObserver`]: each shard's sketch is reported (by
    /// reference, via [`FleetObserver::shard_done`]) the moment its
    /// index range is folded — while other shards are still running.
    /// The observer typically [`CensusSketch::merge_from`]s it into a
    /// live accumulator; the deterministic final merge happens after,
    /// over exactly the same sketches, so the returned report is
    /// byte-identical to the unobserved run.
    pub fn run_population_observed(
        &self,
        spec: &PopulationSpec,
        shards: usize,
        observer: &dyn FleetObserver,
    ) -> PopulationRun {
        assert!(shards >= 1, "a census needs at least one shard");
        let started = Instant::now();
        let bounds = shard_bounds(spec.size, shards);
        let sketches = run_pool(self.threads(), &bounds, |arena, i, &(lo, hi)| {
            let sketch = fold_range(arena, spec, lo, hi);
            observer.shard_done(i, &sketch);
            sketch
        });
        let mut sketch = CensusSketch::new();
        for s in &sketches {
            sketch.merge_from(s);
        }
        let wall = WallStats {
            threads: self.threads(),
            elapsed: started.elapsed(),
            scenarios: spec.size as usize,
        };
        PopulationRun {
            report: PopulationReport {
                spec_digest: spec.digest(),
                size: spec.size,
                sketch,
            },
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_cover_the_population_exactly() {
        for (size, shards) in [(10u64, 3usize), (7, 7), (5, 8), (1_000_000, 13), (0, 2)] {
            let bounds = shard_bounds(size, shards);
            assert_eq!(bounds.len(), shards);
            assert_eq!(bounds.first().map(|b| b.0), Some(0));
            assert_eq!(bounds.last().map(|b| b.1), Some(size));
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
                assert!(w[0].1 - w[0].0 <= (size / shards as u64) + 1, "balanced");
            }
        }
    }

    #[test]
    fn cells_are_a_pure_function_of_seed_and_index() {
        let spec = PopulationSpec::paper_default(0x5c24, 1000);
        let again = PopulationSpec::paper_default(0x5c24, 1000);
        for i in [0u64, 1, 17, 999] {
            assert_eq!(spec.cell(i), again.cell(i));
        }
        let reseeded = PopulationSpec::paper_default(0x5c25, 1000);
        assert!(
            (0..1000).any(|i| spec.cell(i) != reseeded.cell(i)),
            "a different master seed samples a different population"
        );
        assert_ne!(spec.digest(), reseeded.digest());
    }

    #[test]
    fn weighted_pick_respects_empty_intervals() {
        let weights = [(0u8, 0u32), (1, 5), (2, 0), (3, 5)];
        for r in 0..1000u64 {
            let got = pick(&weights, r);
            assert!(got == 1 || got == 3, "zero-weight entries are unreachable");
        }
    }
}
