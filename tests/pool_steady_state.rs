//! Frame-pool steady-state regression: once a host has warmed the resolver
//! cache and the frame-buffer recycle pool, repeated cached-zone browses
//! must be allocation-flat *in the pool*: every buffer drawn through
//! `Ctx::send_copy` / `Ctx::buffer_from` — the switch's forwarding and
//! flood copies — is a recycled one (`pool.reused` grows,
//! `pool.allocated` stays put). Endpoint encoders (the host stack, the
//! servers, the gateway) build each frame in a fresh exact-capacity `Vec`
//! outside the pool, so these counters say nothing about them.
//!
//! Guards the zero-copy codec work: a decode path that quietly clones
//! buffers (or a summarize path that re-parses into owned structs per hop)
//! shows up here as `allocated` creep.
//!
//! The second gate extends the same discipline to the warm-cell arena
//! (PR 9): once every build configuration in a cell mix has run a few
//! times, the arena's *fresh* malloc count — the only pool counter a
//! recycle never resets — must stay flat while further cells stream
//! through on reused buffers.

use v6host::profiles::OsProfile;
use v6host::tasks::AppTask;
use v6testbed::scenario::{CellSpec, FaultVariant, OsProfileId, PoisonVariant, TopologyVariant};
use v6testbed::{CellArena, Testbed};

fn browse() -> AppTask {
    AppTask::Browse {
        name: "ip6.me".parse().unwrap(),
        path: "/".into(),
    }
}

#[test]
fn cached_zone_browse_is_allocation_flat() {
    let mut tb = Testbed::paper_default();
    let id = tb.add_host(OsProfile::windows_10());
    tb.boot();

    // Warm-up: populate DNS caches, neighbour tables, and the frame pool.
    for _ in 0..2 {
        let o = tb.run_task(id, browse(), 60);
        assert!(o.is_success(), "warm-up browse failed: {o:?}");
    }

    let warm = tb.net.metrics().pool;
    assert!(warm.allocated > 0, "pool never allocated during warm-up");

    // Steady state: the same cached browse, several times over.
    for round in 0..3 {
        let o = tb.run_task(id, browse(), 60);
        assert!(o.is_success(), "steady-state browse failed: {o:?}");
        let now = tb.net.metrics().pool;
        assert_eq!(
            now.allocated, warm.allocated,
            "round {round}: fresh frame allocations in steady state \
             (allocated {} -> {})",
            warm.allocated, now.allocated
        );
    }

    let after = tb.net.metrics().pool;
    assert!(
        after.reused > warm.reused,
        "steady-state browses never hit the recycle pool \
         (reused stuck at {})",
        warm.reused
    );
}

/// One round of a small-but-diverse cell mix: both topologies, every
/// poison policy, every fault variant, a rotating OS profile. Seeds
/// vary per round so the rounds are distinct workloads, not replays.
fn census_round(arena: &mut CellArena, round: u64) {
    let mut i = 0u64;
    for topology in TopologyVariant::ALL {
        for poison in PoisonVariant::ALL {
            for fault in FaultVariant::ALL {
                i += 1;
                arena.run_observation(CellSpec {
                    os: OsProfileId(((round + i) % OsProfileId::all().count() as u64) as u16),
                    topology,
                    poison,
                    fault,
                    seed: round * 1_000 + i,
                });
            }
        }
    }
}

#[test]
fn warm_arena_census_is_allocation_flat_at_steady_state() {
    let mut arena = CellArena::new();

    // Warm-up: two rounds build every slot cold and size each pool to
    // the mix's high-water frame demand (the lossy/outage cells need
    // more in-flight buffers than clean ones).
    for round in 0..2 {
        census_round(&mut arena, round);
    }
    let warm = arena.pool_fresh_allocations();
    assert!(warm > 0, "arena never allocated during warm-up");
    assert_eq!(
        arena.slot_count(),
        TopologyVariant::ALL.len() * PoisonVariant::ALL.len(),
        "one slot per build configuration"
    );

    // Steady state: further rounds must not malloc a single new frame
    // buffer — every cell runs on recycled pools.
    let warm_cells_before = arena.cells_warm();
    for round in 2..5 {
        census_round(&mut arena, round);
        assert_eq!(
            arena.pool_fresh_allocations(),
            warm,
            "round {round}: fresh frame mallocs in a warm arena"
        );
    }
    assert!(
        arena.cells_warm() > warm_cells_before,
        "steady-state rounds never hit a warm slot"
    );
}
