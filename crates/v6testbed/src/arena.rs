//! Warm-cell execution: reusable testbed arenas.
//!
//! Building the Fig. 4 topology dominates a cell's cost at population
//! scale: twelve boxed nodes, eleven route-table parses, resolver and
//! NAT construction, zone wiring — all to run a ~40-virtual-second
//! single-client cell and throw the testbed away. A [`CellArena`] keeps
//! one built [`Testbed`] per distinct build configuration (topology ×
//! poison × trace mode — six combinations in the paper matrix) and
//! [recycles](Testbed::recycle) it between cells instead of rebuilding.
//!
//! A cold run is the first use of a fresh arena, so warm and cold cells
//! share one code path and differ only in how the testbed arrives.
//!
//! Correctness bar: a warm run is *byte-identical* to a cold run — same
//! [`CellObservation`], same [`ScenarioResult`] including the full
//! metrics snapshot (pool counters included). The differential suite in
//! `tests/warm_cold.rs` proves this over random cell sequences; the
//! reset invariants it relies on are documented in DESIGN.md §13.
//!
//! Arenas are deliberately *not* shared across threads: each fleet
//! worker owns one, so the hot path takes no locks and reuse is a plain
//! `&mut` borrow.

use crate::scenario::{
    cell_config, observe_cell, CellObservation, CellSpec, PoisonVariant, Scenario, ScenarioResult,
    TopologyVariant,
};
use crate::topology::{Testbed, TestbedConfig};
use v6sim::engine::TraceMode;

/// Stable key for one build configuration. FNV-1a over the three
/// build-time dimensions; everything else a cell varies is per-run
/// state applied by [`observe_cell`].
fn arena_key(topology: TopologyVariant, poison: PoisonVariant, trace: TraceMode) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in [
        topology.label().as_bytes(),
        poison.label().as_bytes(),
        match trace {
            TraceMode::Off => b"off".as_slice(),
            TraceMode::Hops => b"hops".as_slice(),
            TraceMode::Full => b"full".as_slice(),
        },
    ]
    .into_iter()
    .flatten()
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct ArenaSlot {
    key: u64,
    config: TestbedConfig,
    tb: Testbed,
}

/// A per-worker pool of reusable testbeds, keyed by build configuration.
///
/// ```
/// use v6testbed::arena::CellArena;
/// use v6testbed::scenario::{CellSpec, FaultVariant, OsProfileId, PoisonVariant, TopologyVariant};
///
/// let spec = CellSpec {
///     os: OsProfileId(6), // macOS
///     topology: TopologyVariant::PaperDefault,
///     poison: PoisonVariant::WildcardA,
///     fault: FaultVariant::Clean,
///     seed: 42,
/// };
/// let mut arena = CellArena::new();
/// let warm = {
///     arena.run_observation(spec); // cold build, populates the slot
///     arena.run_observation(spec) // warm: recycled in place
/// };
/// assert_eq!(warm, spec.run_observation(), "warm equals cold");
/// assert_eq!(arena.cells_warm(), 1);
/// ```
#[derive(Default)]
pub struct CellArena {
    slots: Vec<ArenaSlot>,
    cells_cold: u64,
    cells_warm: u64,
}

impl CellArena {
    /// An empty arena; testbeds are built lazily on first use of each
    /// configuration.
    pub fn new() -> CellArena {
        CellArena::default()
    }

    /// Cells that paid a full topology build (first use of a config).
    pub fn cells_cold(&self) -> u64 {
        self.cells_cold
    }

    /// Cells that ran on a recycled testbed.
    pub fn cells_warm(&self) -> u64 {
        self.cells_warm
    }

    /// Distinct build configurations currently held.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Total frame-buffer mallocs across every held testbed — the
    /// steady-state gate: after warm-up, running more cells must leave
    /// this flat (see `tests/pool_steady_state.rs`).
    pub fn pool_fresh_allocations(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.tb.net.pool_fresh_allocations())
            .sum()
    }

    /// A ready-to-run testbed for the given build dimensions: recycled
    /// in place when a matching slot exists, built cold otherwise.
    pub(crate) fn testbed(
        &mut self,
        topology: TopologyVariant,
        poison: PoisonVariant,
        trace: TraceMode,
    ) -> &mut Testbed {
        let key = arena_key(topology, poison, trace);
        let i = if let Some(i) = self.slots.iter().position(|s| s.key == key) {
            let slot = &mut self.slots[i];
            slot.tb.recycle(&slot.config);
            self.cells_warm += 1;
            i
        } else {
            let config = cell_config(topology, poison, trace);
            let tb = Testbed::build(config.clone());
            self.slots.push(ArenaSlot { key, config, tb });
            self.cells_cold += 1;
            self.slots.len() - 1
        };
        &mut self.slots[i].tb
    }

    /// Run a population cell — recycled when this arena already holds
    /// its build configuration, built cold otherwise.
    pub fn run_observation(&mut self, spec: CellSpec) -> CellObservation {
        let tb = self.testbed(spec.topology, spec.poison, TraceMode::Off);
        observe_cell(tb, spec.fault, spec.os.profile().clone(), spec.seed)
    }

    /// Run a matrix cell and collect the full result, metrics snapshot
    /// included — the body behind [`Scenario::run_with_trace`].
    pub fn run_with_trace(&mut self, s: &Scenario, trace: TraceMode) -> ScenarioResult {
        let tb = self.testbed(s.topology, s.poison, trace);
        let verdict = observe_cell(tb, s.fault, s.os.clone(), s.seed);
        ScenarioResult {
            label: s.label(),
            seed: s.seed,
            os: s.os.name.clone(),
            verdict,
            metrics: tb.net.metrics(),
        }
    }
}
