//! Fleet-runner regression tests: determinism across repeated runs and
//! serial/parallel equivalence of the aggregate report.

use v6fleet::{run_serial, FleetRunner};
use v6host::profiles::OsProfile;
use v6testbed::scenario::{FaultVariant, PathFamily, PoisonVariant, TopologyVariant};
use v6testbed::Scenario;

/// Running the same seeded fleet twice produces byte-identical reports:
/// `Eq` on the full structure (every per-node counter included) and on
/// the rendered text.
#[test]
fn same_seed_fleet_twice_is_byte_identical() {
    let scenarios: Vec<Scenario> = Scenario::matrix(0xA11CE).into_iter().take(12).collect();
    let a = FleetRunner::new(4).run(&scenarios);
    let b = FleetRunner::new(4).run(&scenarios);
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.render(), b.report.render());
}

/// A 64-scenario fleet on 4 worker threads aggregates to exactly the
/// serial baseline — census, timing percentiles, and every scenario row.
#[test]
fn parallel_fleet_of_64_matches_serial_aggregate() {
    let scenarios: Vec<Scenario> = Scenario::matrix(0x5EED)
        .into_iter()
        .cycle()
        .zip(0..64u64)
        .map(|(mut s, i)| {
            // Re-seed the cycled tail so all 64 scenarios are distinct.
            s.seed = s.seed.wrapping_add(i << 32);
            s
        })
        .collect();
    assert_eq!(scenarios.len(), 64);
    let serial = run_serial(&scenarios);
    let parallel = FleetRunner::new(4).run(&scenarios);
    assert_eq!(parallel.report.census, serial.census);
    assert_eq!(parallel.report.timing, serial.timing);
    assert_eq!(parallel.report, serial);
}

/// Injected faults must not break determinism: the same seed and the
/// same `FaultPlan` give byte-identical reports whether the fleet runs
/// serially or across worker threads, for every fault variant at once.
#[test]
fn faulted_fleet_parallel_equals_serial() {
    let scenarios: Vec<Scenario> = [
        FaultVariant::LossyUplink,
        FaultVariant::Dns64Outage,
        FaultVariant::Nat64Exhaustion,
    ]
    .into_iter()
    .flat_map(|fault| {
        Scenario::matrix_with_fault(0xFA17, fault)
            .into_iter()
            .take(6)
    })
    .collect();
    assert_eq!(scenarios.len(), 18);
    let serial = run_serial(&scenarios);
    let parallel = FleetRunner::new(4).run(&scenarios);
    assert_eq!(parallel.report, serial);
    assert_eq!(parallel.report.render(), serial.render());
    assert!(
        serial.census.degraded > 0,
        "an impaired sweep must visibly degrade someone:\n{}",
        serial.render()
    );
}

/// The dns64-outage scenario is survivable *because* of the stub
/// resolver's retransmission backoff: the Pi is dark for 2.4 s right as
/// the browse starts, early queries die inside the outage, and a
/// backed-off retransmit lands after the Pi returns. The census must
/// still record the client reaching the explanation portal.
#[test]
fn dns64_outage_recovers_via_backoff() {
    let s = Scenario {
        os: OsProfile::nintendo_switch(),
        topology: TopologyVariant::PaperDefault,
        poison: PoisonVariant::WildcardA,
        fault: FaultVariant::Dns64Outage,
        seed: 0xD05,
    };
    let r = s.run();
    assert!(
        r.label.contains("dns64-outage"),
        "label carries the fault: {}",
        r.label
    );
    assert!(
        r.metrics.faults.outage_dropped > 0,
        "the outage must actually eat frames: {}",
        r.metrics
    );
    let host = r.metrics.node("host0-Nintendo Switch").expect("host row");
    assert!(
        host.device.get("dns.retransmits") > 0,
        "recovery goes through retransmission: {}",
        host.device
    );
    assert_eq!(
        r.verdict.sc24,
        PathFamily::V4,
        "browse recovers after the Pi returns"
    );
    assert!(
        r.verdict.intervened,
        "and still lands on the explanation portal"
    );
}

/// A saturated NAT64 table strands RFC 8925 clients (their v4-only
/// traffic has nowhere to go) while genuinely IPv4-only clients keep
/// working through NAT44 — the census records exactly that split.
#[test]
fn nat64_exhaustion_splits_census_by_profile() {
    let mk = |os, seed| Scenario {
        os,
        topology: TopologyVariant::PaperDefault,
        poison: PoisonVariant::WildcardA,
        fault: FaultVariant::Nat64Exhaustion,
        seed,
    };
    let scenarios = vec![
        mk(OsProfile::macos(), 0xE1),
        mk(OsProfile::nintendo_switch(), 0xE2),
    ];
    let report = run_serial(&scenarios);
    let mac = &report.results[0];
    let console = &report.results[1];
    assert_eq!(
        mac.verdict.sc24,
        PathFamily::Fail,
        "RFC 8925 client cannot reach the v4-only site without NAT64: {}",
        mac.render()
    );
    assert_eq!(
        console.verdict.sc24,
        PathFamily::V4,
        "v4-only console rides NAT44 and is unaffected: {}",
        console.render()
    );
    assert!(
        console.verdict.intervened,
        "portal still reachable for the console"
    );
    assert!(
        report.sum_device_counter("5g-gw", "nat64.dropped_table_full") > 0,
        "the refusals are accounted"
    );
    assert!(report.census.degraded >= 1);
    assert!(report.render().contains("degraded="));
}

/// Different base seeds change the client RNG streams but not the
/// experiment's verdicts: the matrix outcome is a property of the
/// topology, not of the seed.
#[test]
fn verdicts_are_seed_stable() {
    let a = run_serial(&Scenario::matrix(1).into_iter().take(6).collect::<Vec<_>>());
    let b = run_serial(&Scenario::matrix(2).into_iter().take(6).collect::<Vec<_>>());
    let verdicts =
        |r: &v6fleet::FleetReport| r.results.iter().map(|x| x.verdict).collect::<Vec<_>>();
    assert_eq!(verdicts(&a), verdicts(&b));
    assert_eq!(a.census, b.census);
}

/// Trace verbosity is pure observation: the same scenario cell produces
/// an identical [`v6testbed::ScenarioResult`] — verdict, census row, and
/// the full engine metrics snapshot — in every [`TraceMode`].
#[test]
fn scenario_results_identical_across_trace_modes() {
    use v6testbed::TraceMode;
    // A spread of cells: both topologies, every poison, a faulted run.
    let mut cells: Vec<Scenario> = Scenario::matrix(0x7ACE).into_iter().take(9).collect();
    cells.push({
        let mut s = cells[0].clone();
        s.fault = FaultVariant::LossyUplink;
        s
    });
    for cell in &cells {
        let full = cell.run_with_trace(TraceMode::Full);
        let hops = cell.run_with_trace(TraceMode::Hops);
        let off = cell.run_with_trace(TraceMode::Off);
        assert_eq!(full, hops, "{}: Full vs Hops diverged", cell.label());
        assert_eq!(full, off, "{}: Full vs Off diverged", cell.label());
    }
}
