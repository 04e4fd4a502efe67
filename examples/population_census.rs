//! Population-scale census walkthrough: sample a large simulated client
//! population from the paper-default OS/topology/poison/fault mix and
//! stream it through the sharded census.
//!
//! ```sh
//! # The 1M-host census the issue's acceptance criterion names
//! # (also available as `just population`):
//! cargo run --release --example population_census -- --size 1000000
//!
//! # A quick look at the default mix:
//! cargo run --release --example population_census -- --size 20000
//!
//! # Warm-vs-cold arena differential (also `just warm-bench`); exits
//! # non-zero unless warm x1 beats cold and, on >= 2 cores with
//! # --threads >= 2, warm xN beats warm x1:
//! cargo run --release --example population_census -- --size 50000 --warm-bench
//! ```
//!
//! Memory stays O(shards × sketch) no matter the size — no per-cell
//! result is ever materialized — and the printed census is byte-stable
//! across `--threads` and `--shards` (see `crates/v6fleet/tests/
//! population.rs` for the proofs). The printed rates are a quick look;
//! the measured, gated figures come from `perfbench --workload census`.

use std::time::Instant;

use v6fleet::{CensusSketch, FleetRunner, PopulationSpec};

struct Args {
    size: u64,
    seed: u64,
    threads: usize,
    shards: usize,
    warm_bench: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        size: 1_000_000,
        seed: 0x5c24,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 16),
        shards: 0,
        warm_bench: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--size" => args.size = value(&flag)?.parse().map_err(|e| format!("--size: {e}"))?,
            "--seed" => {
                let v = value(&flag)?;
                args.seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                args.threads = value(&flag)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--shards" => {
                args.shards = value(&flag)?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--warm-bench" => args.warm_bench = true,
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: population_census [--size N] [--seed HEX] [--threads N] [--shards N] [--warm-bench]"
                ))
            }
        }
    }
    if args.shards == 0 {
        // Enough shards that the work queue stays balanced, few enough
        // that per-shard sketches stay negligible.
        args.shards = (args.threads * 8).max(8);
    }
    Ok(args)
}

/// The warm-vs-cold differential behind `just warm-bench`: the same
/// sampled population run three ways — cold (fresh testbed per cell),
/// warm single-core (one arena), and warm on the full thread pool —
/// with the aggregates asserted equal before any rate is printed.
///
/// Then two same-run ratio gates, each exiting non-zero when it fails:
/// warm ×1 must beat cold, and — when the host has at least two cores
/// and `--threads` is at least 2 — warm ×N must beat warm ×1.
fn run_warm_bench(args: &Args) {
    let spec = PopulationSpec::paper_default(args.seed, args.size);
    eprintln!(
        "warm-bench: {} cells (seed {:#x}), cold vs warm x1 vs warm x{}...",
        args.size, args.seed, args.threads
    );

    // Cold baseline: build-and-throw-away, exactly what the census hot
    // loop did before the arena existed.
    let started = Instant::now();
    let mut cold_sketch = CensusSketch::new();
    for i in 0..args.size {
        let cell = spec.cell(i);
        cold_sketch.fold(cell, cell.run_observation());
    }
    let cold_per_sec = args.size as f64 / started.elapsed().as_secs_f64().max(f64::EPSILON);

    // Warm single-core: the production census path on one thread.
    let warm1 = FleetRunner::new(1).run_population(&spec, args.shards);
    let warm1_per_sec = warm1.wall.scenarios_per_sec();
    assert_eq!(
        warm1.report.sketch, cold_sketch,
        "warm census diverged from the cold baseline"
    );

    // Warm multi-thread: same spec, full pool — must merge to the same
    // report byte for byte.
    let warm_mt = FleetRunner::new(args.threads).run_population(&spec, args.shards);
    let warm_mt_per_sec = warm_mt.wall.scenarios_per_sec();
    assert_eq!(
        warm_mt.report, warm1.report,
        "thread count changed the census aggregate"
    );

    let speedup = warm1_per_sec / cold_per_sec.max(f64::EPSILON);
    let scaling = warm_mt_per_sec / warm1_per_sec.max(f64::EPSILON);
    println!("cold  x1:  {cold_per_sec:>9.0} scenarios/sec");
    println!("warm  x1:  {warm1_per_sec:>9.0} scenarios/sec  ({speedup:.2}x over cold)");
    println!(
        "warm x{:<2}: {warm_mt_per_sec:>9.0} scenarios/sec  ({scaling:.2}x over warm x1)",
        args.threads
    );
    println!("aggregates: identical across all three runs");

    let mut failures = Vec::new();
    if warm1_per_sec <= cold_per_sec {
        failures.push(format!(
            "warm x1 ({warm1_per_sec:.0}/s) does not beat cold ({cold_per_sec:.0}/s)"
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 || args.threads < 2 {
        println!(
            "gate warm xN > warm x1: skipped ({cores} core(s), --threads {})",
            args.threads
        );
    } else if warm_mt_per_sec <= warm1_per_sec {
        failures.push(format!(
            "warm x{} ({warm_mt_per_sec:.0}/s) does not beat warm x1 ({warm1_per_sec:.0}/s)",
            args.threads
        ));
    }
    for failure in &failures {
        eprintln!("warm-bench gate failed: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.warm_bench {
        run_warm_bench(&args);
        return;
    }
    let spec = PopulationSpec::paper_default(args.seed, args.size);
    eprintln!(
        "sampling {} cells (seed {:#x}) on {} thread(s), {} shard(s)...",
        args.size, args.seed, args.threads, args.shards
    );
    let run = FleetRunner::new(args.threads).run_population(&spec, args.shards);
    print!("{}", run.report.render());
    eprintln!(
        "wall: {:.2}s on {} thread(s) = {:.0} scenarios/sec",
        run.wall.elapsed.as_secs_f64(),
        run.wall.threads,
        run.wall.scenarios_per_sec(),
    );
}
