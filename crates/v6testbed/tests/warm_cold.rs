//! Warm-vs-cold differential lockdown: a recycled testbed must be
//! indistinguishable from a freshly built one.
//!
//! The warm-cell arena (PR 9) only pays off if nobody ever has to ask
//! "was that census row produced warm or cold?" — so these tests pin
//! the strongest equivalence the types can express: over *random cell
//! sequences* through one shared [`CellArena`], every observation (and
//! every full [`ScenarioResult`], metrics snapshot included) is equal
//! to the cold path building a throwaway testbed for the same spec.
//!
//! The reset invariants this leans on are documented in DESIGN.md §13;
//! the allocation-flatness half of the story lives in the root
//! `tests/pool_steady_state.rs`.

use proptest::prelude::*;
use v6testbed::scenario::{CellSpec, FaultVariant, OsProfileId, PoisonVariant, TopologyVariant};
use v6testbed::CellArena;

/// Any cell the population sampler could draw: full cross-product of
/// the interned OS table and every topology/poison/fault variant, with
/// an unconstrained seed.
fn arb_cell() -> impl Strategy<Value = CellSpec> {
    (
        prop::sample::select(OsProfileId::all().collect::<Vec<_>>()),
        prop::sample::select(TopologyVariant::ALL.to_vec()),
        prop::sample::select(PoisonVariant::ALL.to_vec()),
        prop::sample::select(FaultVariant::ALL.to_vec()),
        any::<u64>(),
    )
        .prop_map(|(os, topology, poison, fault, seed)| CellSpec {
            os,
            topology,
            poison,
            fault,
            seed,
        })
}

proptest! {
    /// Sequence differential: run a random cell sequence through one
    /// arena (so earlier cells dirty the slots later cells reuse) and
    /// diff every observation against a cold fresh-build run. The
    /// final replay of the first cell under a new seed forces at least
    /// one guaranteed-warm hit per case even when the sampled configs
    /// happen to all differ.
    #[test]
    fn warm_observations_equal_cold_over_random_sequences(
        cells in prop::collection::vec(arb_cell(), 1..3),
        reseed in any::<u64>(),
    ) {
        let mut arena = CellArena::new();
        for spec in &cells {
            prop_assert_eq!(arena.run_observation(*spec), spec.run_observation());
        }
        let replay = CellSpec { seed: reseed, ..cells[0] };
        let warm_before = arena.cells_warm();
        prop_assert_eq!(arena.run_observation(replay), replay.run_observation());
        prop_assert_eq!(arena.cells_warm(), warm_before + 1);
    }
}

/// Full-result differential: the matrix path carries much more state
/// than a census row — the cell, its verdict, and the complete engine
/// metrics snapshot (frame-pool counters included). One
/// warm run per fault variant on a deliberately dirty arena must
/// reproduce the cold [`ScenarioResult`] field for field, on the one
/// untraced path the fleet runner uses.
#[test]
fn warm_scenario_results_equal_cold_across_fault_variants() {
    let mut arena = CellArena::new();
    for (i, fault) in FaultVariant::ALL.into_iter().enumerate() {
        let spec = CellSpec {
            // Walk the profile table so successive cells also swap the
            // host out, not just the fault plan.
            os: OsProfileId((i % OsProfileId::all().count()) as u16),
            topology: TopologyVariant::PaperDefault,
            poison: PoisonVariant::WildcardA,
            fault,
            seed: 0xC0FFEE + i as u64,
        };
        // Dirty the slot first so the diffed run is genuinely warm.
        arena.run(spec);
        let warm = arena.run(spec);
        let cold = spec.run();
        assert_eq!(warm, cold, "warm != cold for fault {:?}", fault);
    }
    assert_eq!(arena.cells_cold(), 1, "one build config, one cold build");
    assert_eq!(arena.cells_warm(), 2 * FaultVariant::ALL.len() as u64 - 1);
}
