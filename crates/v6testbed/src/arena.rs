//! Warm-cell execution: reusable testbed arenas.
//!
//! Building the Fig. 4 topology dominates a cell's cost at population
//! scale: twelve boxed nodes, eleven route-table parses, resolver and
//! NAT construction, zone wiring — all to run a ~40-virtual-second
//! single-client cell and throw the testbed away. A [`CellArena`] keeps
//! one built [`Testbed`] per distinct build configuration (topology ×
//! poison — six combinations in the paper matrix) and
//! [recycles](Testbed::recycle) it between cells instead of rebuilding.
//! Every cell runs untraced, so the trace mode is never part of a key.
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
    cell_config, observe_cell, CellObservation, PoisonVariant, Scenario, ScenarioResult,
    TopologyVariant,
};
use crate::topology::{Testbed, TestbedConfig};

/// One held testbed, keyed by the build dimensions it was built for;
/// everything else a cell varies is per-run state applied by
/// [`observe_cell`].
struct ArenaSlot {
    key: (TopologyVariant, PoisonVariant),
    config: TestbedConfig,
    tb: Testbed,
}

/// A per-worker pool of reusable testbeds, keyed by build configuration.
///
/// ```
/// use v6testbed::arena::CellArena;
/// use v6testbed::scenario::{FaultVariant, OsProfileId, PoisonVariant, Scenario, TopologyVariant};
///
/// let spec = Scenario {
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

    /// A ready-to-run testbed for `cell`'s build dimensions: recycled
    /// in place when a matching slot exists, built cold otherwise.
    fn testbed(&mut self, cell: &Scenario) -> &mut Testbed {
        let key = (cell.topology, cell.poison);
        let i = if let Some(i) = self.slots.iter().position(|s| s.key == key) {
            let slot = &mut self.slots[i];
            slot.tb.recycle(&slot.config);
            self.cells_warm += 1;
            i
        } else {
            let config = cell_config(cell.topology, cell.poison);
            let tb = Testbed::build(config.clone());
            self.slots.push(ArenaSlot { key, config, tb });
            self.cells_cold += 1;
            self.slots.len() - 1
        };
        &mut self.slots[i].tb
    }

    /// Run a cell and keep only its census row — the population hot
    /// path, which takes no metrics snapshot.
    pub fn run_observation(&mut self, cell: Scenario) -> CellObservation {
        observe_cell(self.testbed(&cell), &cell)
    }

    /// Run a cell and collect the full result, metrics snapshot
    /// included — the body behind [`Scenario::run`] and the fleet's
    /// matrix path.
    pub fn run(&mut self, cell: Scenario) -> ScenarioResult {
        let tb = self.testbed(&cell);
        let verdict = observe_cell(tb, &cell);
        ScenarioResult {
            scenario: cell,
            verdict,
            metrics: tb.net.metrics(),
        }
    }
}
