//! Seeded fault-matrix smoke sweep: every impaired fault variant runs a
//! slice of the evaluation matrix, stays deterministic across thread
//! counts, and produces sane fault accounting. This is the `just chaos`
//! target's backbone — fast enough for CI, wide enough to catch a fault
//! path that panics, hangs, or breaks conservation on a real topology.

use v6fleet::{run_serial, FleetRunner};
use v6testbed::scenario::FaultVariant;
use v6testbed::Scenario;

/// One matrix slice per impaired variant, all checked the same way.
fn sweep(fault: FaultVariant) -> v6fleet::FleetReport {
    let scenarios: Vec<Scenario> = Scenario::matrix_with_fault(0xC405, fault)
        .into_iter()
        .take(8)
        .collect();
    let serial = run_serial(&scenarios);
    let parallel = FleetRunner::new(4).run(&scenarios);
    assert_eq!(
        parallel.report,
        serial,
        "{} fleet must be thread-count invariant",
        fault.label()
    );
    assert_eq!(parallel.report.render(), serial.render());
    serial
}

#[test]
fn lossy_uplink_sweep_is_deterministic_and_accounted() {
    let report = sweep(FaultVariant::LossyUplink);
    for r in &report.results {
        assert!(r.scenario.label().contains("lossy-uplink"));
        let f = &r.metrics.faults;
        // 25‰ loss over a browse workload's uplink traffic must bite
        // somewhere in the sweep; per-run it may round to zero (and fast
        // finishers end before the 16 s flap even starts).
        assert_eq!(
            r.metrics.total_frames_tx() + f.duplicated,
            r.metrics.engine.frames_forwarded
                + f.total_dropped()
                + r.metrics.engine.frames_dropped_unlinked,
            "conservation violated in {}",
            r.scenario.label()
        );
    }
    let total_dropped: u64 = report
        .results
        .iter()
        .map(|r| r.metrics.faults.total_dropped())
        .sum();
    assert!(
        total_dropped > 0,
        "a lossy sweep with zero losses is not lossy"
    );
    assert!(report.census.degraded > 0);
}

#[test]
fn dns64_outage_sweep_is_deterministic_and_survivable() {
    let report = sweep(FaultVariant::Dns64Outage);
    let outage_hits: u64 = report
        .results
        .iter()
        .map(|r| r.metrics.faults.outage_dropped)
        .sum();
    assert!(
        outage_hits > 0,
        "the Pi outage must eat at least one frame somewhere"
    );
    // The outage is a crash window, not a permanent failure: at least one
    // client must still complete its browse workload afterwards.
    assert!(
        report
            .results
            .iter()
            .any(|r| r.verdict.sc24 != v6testbed::scenario::PathFamily::Fail),
        "nobody recovered from a 2.4 s resolver outage:\n{}",
        report.render()
    );
}

#[test]
fn nat64_exhaustion_sweep_is_deterministic_and_accounted() {
    let report = sweep(FaultVariant::Nat64Exhaustion);
    assert!(
        report.sum_device_counter("5g-gw", "nat64.dropped_table_full") > 0,
        "a zero-capacity NAT64 table must refuse someone:\n{}",
        report.render()
    );
    // No link impairment is installed for this variant: the damage is in
    // the device, not on the wire.
    for r in &report.results {
        assert_eq!(
            r.metrics.faults.total_dropped(),
            0,
            "{}",
            r.scenario.label()
        );
    }
    assert!(report.census.degraded > 0);
}

/// Clean control: the fault dimension's `Clean` arm changes nothing —
/// same seeds with and without the fault field produce equal reports.
#[test]
fn clean_variant_is_the_identity() {
    let base: Vec<Scenario> = Scenario::matrix(0xC405).into_iter().take(6).collect();
    let clean: Vec<Scenario> = Scenario::matrix_with_fault(0xC405, FaultVariant::Clean)
        .into_iter()
        .take(6)
        .collect();
    let a = run_serial(&base);
    let b = run_serial(&clean);
    assert_eq!(a, b);
    for r in &a.results {
        assert_eq!(
            r.metrics.faults,
            Default::default(),
            "{}",
            r.scenario.label()
        );
    }
    assert_eq!(a.census.degraded, 0);
}
