//! Run the full Fig. 4 scenario matrix — every paper OS profile ×
//! topology variant × IPv4 DNS intervention policy — as a parallel
//! fleet, print the per-scenario rows and the aggregate census, and
//! verify the parallel aggregate against the serial baseline.
//!
//! ```text
//! cargo run --release --example fleet_census
//! ```
//!
//! With `--faults` the same matrix additionally runs under every
//! impaired [`FaultVariant`], and a clean-vs-impaired census diff is
//! printed per OS profile — which populations still reach the
//! explanation portal when the uplink degrades, the DNS64 Pi crashes,
//! or the carrier NAT64 table is full:
//!
//! ```text
//! cargo run --release --example fleet_census -- --faults
//! ```

use v6fleet::{run_serial, FleetCensus, FleetReport, FleetRunner};
use v6testbed::scenario::FaultVariant;
use v6testbed::Scenario;

fn main() {
    let faults = std::env::args().any(|a| a == "--faults");
    let scenarios = Scenario::matrix(0x5c24);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 16);

    println!(
        "fleet: {} scenarios (full Fig. 4 matrix) on {} worker threads\n",
        scenarios.len(),
        threads
    );
    let run = FleetRunner::new(threads).run(&scenarios);
    print!("{}", run.report.render());
    println!(
        "\nwall-clock: {:?} total, {:.1} scenarios/s",
        run.wall.elapsed,
        run.wall.scenarios_per_sec()
    );

    // Aggregate interventions observed at the devices, fleet-wide.
    println!(
        "device totals: gateway nat64.outbound={} nat44.outbound={} | pi dnsmasq.poisoned={}",
        run.report.sum_device_counter("5g-gw", "nat64.outbound"),
        run.report.sum_device_counter("5g-gw", "nat44.outbound"),
        run.report
            .sum_device_counter("raspberry-pi", "dnsmasq.poisoned"),
    );

    let serial = run_serial(&scenarios);
    assert_eq!(
        serial, run.report,
        "parallel aggregate must equal the serial baseline"
    );
    println!("serial baseline check: identical ✓");

    if faults {
        fault_sweep(&run.report, threads);
    }
}

/// Run the matrix under each impaired variant and diff the per-OS
/// census against the clean baseline.
fn fault_sweep(clean: &FleetReport, threads: usize) {
    for fault in FaultVariant::ALL
        .into_iter()
        .filter(|f| *f != FaultVariant::Clean)
    {
        let scenarios = Scenario::matrix_with_fault(0x5c24, fault);
        let run = FleetRunner::new(threads).run(&scenarios);
        let impaired = &run.report;
        println!(
            "\n=== fault: {} ({} scenarios, {:?}) ===",
            fault.label(),
            scenarios.len(),
            run.wall.elapsed
        );
        let c = &impaired.census;
        println!(
            "census: accurate-v6only={} intervened={} degraded={} (clean: accurate-v6only={} intervened={})",
            c.accurate_v6only,
            c.intervened,
            c.degraded,
            clean.census.accurate_v6only,
            clean.census.intervened,
        );
        println!(
            "{:<28} {:>5} {:>10} {:>10} {:>8}",
            "os profile", "runs", "intervened", "(clean)", "degraded"
        );
        let clean_by_os: Vec<(&str, FleetCensus)> = clean.census_by_os();
        for (os, row) in impaired.census_by_os() {
            let clean_row = clean_by_os
                .iter()
                .find(|(name, _)| *name == os)
                .map(|(_, r)| *r)
                .unwrap_or_default();
            let marker = if row.intervened < clean_row.intervened {
                "  ← portal lost"
            } else {
                ""
            };
            println!(
                "{:<28} {:>5} {:>10} {:>10} {:>8}{}",
                os, row.associated, row.intervened, clean_row.intervened, row.degraded, marker
            );
        }
    }
}
